package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StructType
import repro.nrab._
import repro.whynot.NTup

/** A why-not question Φ = ⟨Q, D, t⟩ (paper Def. 5) plus the algorithm's
  * inputs: the attribute-alternative groups (paper §5.2 assumes these are
  * provided) and, for the lineage baselines, which tables' tuples to
  * trace (None = tables constrained by the backtraced NIP, or all tables
  * when none is constrained).
  */
final case class Question(
    query: Op,
    tables: Map[String, DataFrame],
    nip: NTup,
    altGroups: Seq[AltGroup] = Seq.empty,
    wnTraceTables: Option[Seq[String]] = None,
    baselineCompat: Map[String, Pred] = Map.empty) {
  /** Each input table's schema, nested types included. */
  def tableSchemas: Map[String, StructType] = tables.map { case (n, df) => n -> df.schema }
}

/** One query-based explanation: a set of operators to reparameterize
  * (an element of E≈, paper Def. 10 approximated by Alg. 1/4).
  *
  * ``ops`` are operator ids; ``labels`` the paper-style rendering;
  * ``saIndex`` the schema alternative it came from (0 = original);
  * ``witnesses`` how many traced rows support it (a loose side-effect
  * upper bound Δ+, §5.4).
  */
final case class Explanation(ops: Set[Int], labels: Set[String], saIndex: Int, witnesses: Long) {
  override def toString: String = labels.toSeq.sorted.mkString("{", ", ", "}")
}

object Explain {

  /** Full approach RP: explanations across all schema alternatives,
    * ranked by the paper's partial order (Def. 9) totalized as
    * (|Δ| asc, original SA first, pipeline position).
    */
  def rp(q: Question): Seq[Explanation] = {
    val ts = q.tableSchemas
    run(q, SchemaAlts.enumerate(q.query, q.altGroups, ts), ts)
  }

  /** RPnoSA: the variant without schema alternatives (paper §6.2). */
  def rpNoSA(q: Question): Seq[Explanation] = {
    val ts = q.tableSchemas
    run(q, Seq(SchemaAlternative(0, q.query, Set.empty, Map.empty)), ts)
  }

  private def run(q: Question, sas: Seq[SchemaAlternative],
                  ts: Map[String, StructType]): Seq[Explanation] = {
    val found = scala.collection.mutable.Map.empty[Set[Int], Explanation]

    sas.foreach { sa =>
      val placement = Placement.backtrace(sa.query, q.nip, ts)
      val traced    = Trace.trace(sa.query, q.tables, placement, ts)
      witnessFailSets(traced).foreach { case (failSet, n) =>
        val ops = sa.sr ++ failSet
        if (ops.nonEmpty) {
          found(ops) = found.get(ops) match {
            case Some(prev) => prev.copy(saIndex = math.min(prev.saIndex, sa.index),
                                         witnesses = prev.witnesses + n)
            case None => Explanation(ops, ops.map(labelOf(q.query, _)), sa.index, n)
          }
        }
      }
    }
    rank(q.query, found.values.toSeq)
  }

  /** Distinct failure sets over consistent witness rows, with support
    * counts: exactly the set Alg. 4 enumerates (DESIGN.md §2).
    */
  def witnessFailSets(traced: Traced): Seq[(Set[Int], Long)] = {
    if (traced.tracked.isEmpty) {
      val n = traced.df.filter(col(traced.consistent)).count()
      return if (n > 0) Seq((Set.empty[Int], n)) else Seq.empty
    }
    val flags = traced.tracked.map(t => coalesce(col(t.retCol), lit(false)).as(t.retCol))
    val rows = traced.df.filter(col(traced.consistent))
      .groupBy(flags: _*).count().collect()
    rows.toSeq.map { r =>
      val failSet = traced.tracked.zipWithIndex.collect {
        case (t, i) if !r.getBoolean(i) => t.opId
      }.toSet
      (failSet, r.getLong(traced.tracked.size))
    }
  }

  /** Def. 9 ordering, totalized: fewer changed operators first; within a
    * size, explanations of the original schema alternative first (their
    * reparameterizations have no schema side effects); then by pipeline
    * (pre-order) position of the operators; labels as final tiebreak.
    * Reproduces every ranking the paper reports (gold-standard positions
    * in Table 7).
    */
  def rank(query: Op, es: Seq[Explanation]): Seq[Explanation] = {
    val pos = query.allOps.map(_.id).zipWithIndex.toMap
    es.sortBy { e =>
      val positions = e.ops.toSeq.map(pos.getOrElse(_, Int.MaxValue)).sorted
      (e.ops.size, if (e.saIndex == 0) 0 else 1,
        positions.map(p => f"$p%04d").mkString(","), e.toString)
    }
  }

  def labelOf(query: Op, opId: Int): String =
    query.find(opId).map(_.label).getOrElse(s"op$opId")
}
