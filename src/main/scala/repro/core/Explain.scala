package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StructType
import repro.nrab._
import repro.whynot.NTup

/** A why-not question Φ = ⟨Q, D, t⟩ (paper Def. 5) plus the algorithm's
  * inputs: the attribute-alternative groups (paper §5.2 assumes these are
  * provided) and, for the lineage baselines, per-table compatibility
  * predicates that replace the backtraced t̄ (the tables they name are the
  * ones the baselines trace).
  */
final case class Question(
    query: Op,
    tables: Map[String, DataFrame],
    nip: NTup,
    altGroups: Seq[AltGroup] = Seq.empty,
    baselineCompat: Map[String, Pred] = Map.empty) {
  /** Each input table's schema, nested types included. */
  def tableSchemas: Map[String, StructType] = tables.map { case (n, df) => n -> df.schema }
}

/** One query-based explanation: a set of operators to reparameterize
  * (an element of E≈, paper Def. 10 approximated by Alg. 1/4).
  *
  * ``ops`` are operator ids; ``labels`` the paper-style rendering;
  * ``saIndex`` the schema alternative it came from (0 = original);
  * ``witnesses`` how many consistent traced rows support it, summed over
  * its schema alternatives (a support count, not a side-effect bound).
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

  /** Trace the alternatives, one traced relation and one witness query
    * per row grain ([[Trace.rowGrain]]), and collect their explanations.
    */
  private def run(q: Question, sas: Seq[SchemaAlternative],
                  ts: Map[String, StructType]): Seq[Explanation] = {
    val found = scala.collection.mutable.Map.empty[Set[Int], Explanation]
    val placed = sas.map(sa => sa -> Placement.backtrace(sa.query, q.nip, ts))
    val groups = placed.groupBy { case (sa, _) => Trace.rowGrain(sa.query, ts) }
      .values.toSeq.sortBy(_.head._1.index)

    groups.foreach { group =>
      val lanes = Trace.group(group.map { case (sa, p) => sa.query -> p }, q.tables, ts)
      group.map(_._1).zip(witnessFailSets(lanes)).foreach { case (sa, failSets) =>
        failSets.foreach { case (failSet, n) =>
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
    }
    rank(q.query, found.values.toSeq)
  }

  /** Distinct failure sets over consistent witness rows, with support
    * counts: exactly the set Alg. 4 enumerates (DESIGN.md §2).
    */
  def witnessFailSets(traced: Traced): Seq[(Set[Int], Long)] = witnessFailSets(Seq(traced)).head

  /** [[witnessFailSets]] of every lane of one traced group, in one query:
    * one `groupBy` over the distinct consistency and retained-flag columns
    * of all lanes counts the rows consistent in any lane, and each lane
    * reads its failure sets off the groups it is consistent in.
    */
  def witnessFailSets(lanes: Seq[Traced]): Seq[Seq[(Set[Int], Long)]] = {
    val df = lanes.head.df
    require(lanes.forall(_.df eq df), "witness lanes must share one traced relation")
    val flags = lanes.flatMap(t => t.consistent +: t.tracked.map(_.retCol)).distinct
    val at = flags.zipWithIndex.toMap
    val rows = df.filter(lanes.map(t => col(t.consistent)).reduce(_ || _))
      .groupBy(flags.map(f => coalesce(col(f), lit(false)).as(f)): _*).count().collect().toSeq
    lanes.map { t =>
      rows.filter(_.getBoolean(at(t.consistent))).groupMapReduce { r =>
        t.tracked.collect { case op if !r.getBoolean(at(op.retCol)) => op.opId }.toSet
      }(_.getLong(flags.size))(_ + _).toSeq
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
