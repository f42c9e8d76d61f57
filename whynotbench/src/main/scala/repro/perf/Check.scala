package repro.perf

import repro.scenarios.Scenario

/** The four public entry points a pass calls per question. */
sealed abstract class Call(val key: String)
object Call {
  case object Orig   extends Call("orig")
  case object Wn     extends Call("wnpp")
  case object RpNoSa extends Call("rpnosa")
  case object Rp     extends Call("rp")
}

/** Judges one call's answer against the scenario's published
  * expectations. An explanation list must equal the expected sets in
  * rank order; RP must also place the gold explanation at the gold rank.
  * The original query has no published answer, so its row count must
  * stay what it was the first time the question was asked in this run.
  *
  * Returns None when the answer is right, else what was wrong.
  */
final class Check {
  private val origCounts = scala.collection.mutable.Map.empty[String, Long]

  def orig(s: Scenario, rows: Long): Option[String] =
    origCounts.get(s.name) match {
      case None => origCounts(s.name) = rows; None
      case Some(n) if n == rows => None
      case Some(n) => Some(s"${s.name} orig: $rows rows, earlier $n")
    }

  def wn(s: Scenario, got: Seq[Set[String]]): Option[String] =
    ranked(s.name, "WN++", s.expectedWn, got)

  def rpNoSa(s: Scenario, got: Seq[Set[String]]): Option[String] =
    ranked(s.name, "RPnoSA", s.expectedRpNoSa, got)

  def rp(s: Scenario, got: Seq[Set[String]]): Option[String] =
    ranked(s.name, "RP", s.expectedRp, got).orElse {
      (s.gold, s.goldRank) match {
        case (Some(g), Some(rank)) if got.indexOf(g) + 1 != rank =>
          Some(s"${s.name} RP: gold ${Check.fmt(Seq(g))} at rank ${got.indexOf(g) + 1}, expected $rank")
        case _ => None
      }
    }

  private def ranked(name: String, what: String, want: Seq[Set[String]],
                     got: Seq[Set[String]]): Option[String] =
    if (got == want) None
    else Some(s"$name $what: got ${Check.fmt(got)}, expected ${Check.fmt(want)}")
}

object Check {
  def fmt(ss: Seq[Set[String]]): String =
    if (ss.isEmpty) "∅" else ss.map(_.toSeq.sorted.mkString("{", ",", "}")).mkString(" ")
}

/** Attempted and failed calls. A call fails when it throws or when
  * [[Check]] rejects its answer; each failure is printed on stderr.
  */
final class Tally {
  var attempted = 0L
  var failed = 0L

  /** Count one call and judge its outcome; true when the answer is right. */
  def judge[A](what: String, outcome: Either[Exception, A])(check: A => Option[String]): Boolean = {
    attempted += 1
    val verdict = outcome match {
      case Left(e) => Some(s"$what threw ${e.getClass.getName}: ${e.getMessage}")
      case Right(a) => check(a)
    }
    verdict.foreach { msg =>
      failed += 1
      Console.err.println(s"[whynotbench] FAILED $msg")
    }
    verdict.isEmpty
  }
}

object Tally {
  /** The call's result, or the exception it threw (errors still propagate). */
  def attempt[A](call: => A): Either[Exception, A] =
    try Right(call) catch { case e: Exception => Left(e) }
}
