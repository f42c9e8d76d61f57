package repro.baselines

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._
import repro.core._
import repro.nrab._

/** Lineage-based missing-answer baselines, re-implemented on top of the
  * tracer's annotations (evaluated over the ORIGINAL query — no schema
  * alternatives, no revalidation of compatibles):
  *
  *  - [[Baselines.wnPlusPlus]] — the paper's WN++: Why-Not [9] extended to
  *    scale and to nested data. Compatible source tuples are traced
  *    forward with original operator semantics; the explanation is the
  *    operator at which the longest-surviving fully-eliminated compatible
  *    died (the most downstream "picky" operator). Compatibles whose
  *    successors reach the (non-matching) output contribute nothing; no
  *    compatibles or no deaths -> no explanation.
  *    Chapman & Jagadish's Why-Not follows the same frontier rule (they
  *    coincide on the paper's crime scenarios C1–C3), so it is not a
  *    separate entry point.
  *  - [[Baselines.conseil]] — Herschel's hybrid Conseil [19]: virtually
  *    repairs the picky operator and keeps tracing, returning the combined
  *    set of all picky operators along the longest-surviving compatible's
  *    path.
  *
  * Deaths are *path-restricted*: a compatible from table T is only blamed
  * on operators that are ancestors of T's table access; a join on the
  * path fails for T when T's side has no original-world partner (the
  * tracer's wnJoin flags).
  */
object Baselines {

  /** WN++ explanations: zero or one operator set. */
  def wnPlusPlus(q: Question): Seq[Set[Int]] = {
    val d = deaths(q)
    if (d.isEmpty) Seq.empty else Seq(Set(d.minBy(_.deathPos).deathOp))
  }

  /** Conseil [19] baseline: combined picky set of the compatible that
    * survived longest.
    */
  def conseil(q: Question): Option[Set[Int]] = {
    val d = deaths(q)
    if (d.isEmpty) None
    else {
      val best = d.minBy(_.deathPos)
      Some(best.failSets.minBy(s => (s.size, s.toSeq.sorted.mkString)))
    }
  }

  /** Death summary for one traced table: the most downstream death
    * position/operator among its compatibles, and the distinct full
    * failure sets of the rows dying there (for Conseil).
    */
  private final case class Death(table: String, deathPos: Int, deathOp: Int,
                                 failSets: Seq[Set[Int]])

  private def deaths(q: Question): Seq[Death] = {
    val ts = q.tableSchemas
    val placement = Placement.backtrace(q.query, q.nip, ts)
    val traced = Trace.lineage(q.query, q.tables, placement, ts, q.baselineCompat)

    val allTables = q.query.allOps.collect { case TableAccess(_, n) => n }.distinct
    val traceTables = q.wnTraceTables.getOrElse {
      val constrained = allTables.filter(placement.constrainedTables.contains)
      if (constrained.nonEmpty) constrained else allTables
    }

    val pos = q.query.allOps.map(_.id).zipWithIndex.toMap
    val joinsById = q.query.allOps.collect { case j: Join => j.id -> j }.toMap

    traceTables.flatMap { table =>
      val compatCol = traced.compat.get(table)
      if (compatCol.isEmpty) None
      else {
        // tracked ops on this table's lineage path, with the flag to use
        val pathFlags: Seq[(Int, Column)] = traced.tracked.flatMap { t =>
          val op = q.query.find(t.opId).get
          val onPath = op.allOps.exists { case TableAccess(_, n) => n == table; case _ => false }
          if (!onPath) None
          else joinsById.get(t.opId) match {
            case Some(j) =>
              val leftHas = j.left.allOps.exists { case TableAccess(_, n) => n == table; case _ => false }
              val (wl, wr) = traced.wnJoin(t.opId)
              Some(t.opId -> coalesce(col(if (leftHas) wl else wr), lit(false)))
            case None =>
              Some(t.opId -> coalesce(col(t.retCol), lit(false)))
          }
        }
        if (pathFlags.isEmpty) None
        else {
          // per row: position of the FIRST failing op in evaluation order
          // (the deepest in the tree = the largest pre-order position)
          val failPositions = pathFlags.map { case (id, ok) =>
            when(!ok, lit(pos(id))).otherwise(lit(-1))
          }
          val deathPos =
            if (failPositions.size == 1) failPositions.head
            else greatest(failPositions: _*)

          val flagCols = pathFlags.map { case (id, ok) => ok.as(s"__f_$id") }
          val rows = traced.df
            .filter(coalesce(col(compatCol.get), lit(false)))
            .select(flagCols :+ deathPos.as("__death"): _*)
            .filter(col("__death") >= 0)
            .groupBy((pathFlags.map { case (id, _) => col(s"__f_$id") } :+ col("__death")): _*)
            .count()
            .collect()

          if (rows.isEmpty) None
          else {
            val minDeath = rows.map(_.getAs[Int]("__death")).min
            val dyingRows = rows.filter(_.getAs[Int]("__death") == minDeath)
            val failSets = dyingRows.map { r =>
              pathFlags.zipWithIndex.collect { case ((id, _), i) if !r.getBoolean(i) => id }.toSet
            }.toSeq.distinct
            val deathOp = pos.collectFirst { case (id, p) if p == minDeath => id }.get
            Some(Death(table, minDeath, deathOp, failSets))
          }
        }
      }
    }
  }
}
