package repro.scenarios

import repro.baselines.Baselines
import repro.core.{Explain, Explanation, Question}

/** One evaluation scenario (paper Tables 4/5/6/9/10): a why-not question
  * plus the paper's published expectations so the table-reproduction
  * harness can diff them.
  *
  *  - ``expectedWn`` / ``expectedRpNoSa`` / ``expectedRp``: the explanation
  *    sets of paper Table 8 (operator labels, in the paper's rank order)
  *  - ``goldRank``: 1-based rank of the gold-standard explanation in the
  *    RP list (paper Table 7, numbers in brackets), None if no gold
  *  - ``deviations``: documented differences from the paper (see
  *    EXPERIMENTS.md)
  */
final case class Scenario(
    name: String,
    description: String,
    question: Question,
    expectedWn: Seq[Set[String]],
    expectedRpNoSa: Seq[Set[String]],
    expectedRp: Seq[Set[String]],
    goldRank: Option[Int] = None,
    gold: Option[Set[String]] = None,
    deviations: Seq[String] = Seq.empty,
    expectedWhyNot: Option[Set[String]] = None,
    expectedConseil: Option[Set[String]] = None) {

  def runRp(): Seq[Explanation] = Explain.rp(question)
  def runRpNoSa(): Seq[Explanation] = Explain.rpNoSA(question)
  def runWn(): Seq[Set[String]] =
    Baselines.wnPlusPlus(question).map(_.map(Explain.labelOf(question.query, _)))
  /** Why-Not [9]: the same frontier rule as WN++ (see [[Baselines]]). */
  def runWhyNot(): Option[Set[String]] = runWn().headOption
  def runConseil(): Option[Set[String]] =
    Baselines.conseil(question).map(_.map(Explain.labelOf(question.query, _)))

  /** All three approaches, as label sets in rank order. */
  def runAll(): ScenarioResult = ScenarioResult(
    name,
    wn = runWn(),
    rpNoSa = runRpNoSa().map(_.labels),
    rp = runRp().map(_.labels))
}

/** Measured explanation sets for one scenario. */
final case class ScenarioResult(
    name: String,
    wn: Seq[Set[String]],
    rpNoSa: Seq[Set[String]],
    rp: Seq[Set[String]]) {

  /** 1-based position of ``gold`` in the RP ranking, if present. */
  def goldPosition(gold: Set[String]): Option[Int] = {
    val i = rp.indexOf(gold)
    if (i >= 0) Some(i + 1) else None
  }
}
