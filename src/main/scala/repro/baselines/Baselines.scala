package repro.baselines

import repro.core._

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
  * path fails for T when T's side has no original-world partner. Each
  * traced table is one lane of the lineage trace ([[Trace.lineage]]), and
  * one [[Explain.witnessFailSets]] query answers all lanes. The traced
  * tables are those ``baselineCompat`` overrides, else those the
  * backtraced NIP constrains, else all tables.
  */
object Baselines {

  /** WN++ explanations: zero or one operator set. */
  def wnPlusPlus(q: Question): Seq[Set[Int]] =
    death(q).map { case (pos, _) => Set(q.query.allOps(pos).id) }.toSeq

  /** Conseil [19] baseline: combined picky set of the compatible that
    * survived longest.
    */
  def conseil(q: Question): Option[Set[Int]] =
    death(q).map { case (_, failSets) => failSets.minBy(s => (s.size, s.toSeq.sorted.mkString)) }

  /** The death of the longest-surviving compatible over the traced
    * tables: the pre-order position of the operator it died at and the
    * distinct full failure sets of the rows dying there (for Conseil).
    * A row dies at its first failing operator in evaluation order, the
    * deepest in the tree: the largest pre-order position in its failure
    * set.
    */
  private def death(q: Question): Option[(Int, Seq[Set[Int]])] = {
    val ts = q.tableSchemas
    val placement = Placement.backtrace(q.query, q.nip, ts)
    val all = Trace.lineage(q.query, q.tables, placement, ts, q.baselineCompat)
    val traced = Seq(q.baselineCompat.keySet, placement.tableNips.keySet)
      .map(chosen => all.filter { case (table, _) => chosen(table) })
      .find(_.nonEmpty).getOrElse(all)
    val lanes = traced.values.toSeq.filter(_.tracked.nonEmpty)
    if (lanes.isEmpty) None
    else {
      val pos = q.query.allOps.map(_.id).zipWithIndex.toMap
      Explain.witnessFailSets(lanes).flatMap { failSets =>
        val dying = failSets.collect { case (s, _) if s.nonEmpty => s.map(pos).max -> s }
        Option.when(dying.nonEmpty) {
          val at = dying.map(_._1).min
          at -> dying.collect { case (p, s) if p == at => s }
        }
      }.minByOption(_._1)
    }
  }
}
