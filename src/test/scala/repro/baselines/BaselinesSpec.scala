package repro.baselines

import repro.SparkSpec
import repro.core.Question
import repro.nrab._
import repro.whynot._

/** Unit tests for the lineage-baseline semantics on hand-built inputs:
  * per-row first-failure deaths, longest-survivor selection, join blame
  * via original-world partners, and the ∅ cases.
  */
class BaselinesSpec extends SparkSpec {
  import spark.implicits._

  private def tab(rows: (Long, String, Int)*) =
    rows.toDF("id", "s", "n")

  test("single selection: the compatible dies there") {
    val t = Map("r" -> tab((1, "hit", 5), (2, "other", 50)))
    val q = Projection(2, ProjCol.keep("id", "s"),
      Selection(1, Pred.gt("n", 10), TableAccess(0, "r")))
    val question = Question(q, t, Nip.tup("s" -> NConst("hit"), "id" -> NAny))
    assert(Baselines.wnPlusPlus(question) == Seq(Set(1)))
    assert(Baselines.conseil(question).contains(Set(1)))
  }

  test("two selections: the longest-surviving compatible picks the frontier") {
    // row A fails only the OUTER filter; row B fails both
    val t = Map("r" -> tab((1, "hit", 5), (2, "hit", 100)))
    val q = Selection(2, Pred.lt("n", 50),         // outer: kills row 2
      Selection(1, Pred.gt("n", 10), TableAccess(0, "r"))) // inner: kills row 1
    val question = Question(q, t, Nip.tup("s" -> NConst("hit"), "id" -> NAny, "n" -> NAny))
    // row 2 survives σ1 and dies at σ2 (more downstream) -> frontier σ2
    assert(Baselines.wnPlusPlus(question) == Seq(Set(2)))
  }

  test("conseil returns the full failure set of the longest survivor") {
    val t = Map("r" -> tab((1, "hit", 200), (2, "hit", 100)))
    // row 1 fails both filters, row 2 fails only the outer one
    val q = Selection(2, Pred.lt("n", 50),
      Selection(1, Pred.lt("n", 150), TableAccess(0, "r")))
    val question = Question(q, t, Nip.tup("s" -> NConst("hit"), "id" -> NAny, "n" -> NAny))
    assert(Baselines.conseil(question).contains(Set(2)))
    // why-not (WN++'s frontier rule) agrees on the frontier operator
    assert(Baselines.wnPlusPlus(question) == Seq(Set(2)))
  }

  test("no compatibles -> no explanation") {
    val t = Map("r" -> tab((1, "a", 5)))
    val q = Selection(1, Pred.gt("n", 10), TableAccess(0, "r"))
    val question = Question(q, t, Nip.tup("s" -> NConst("missing"), "id" -> NAny, "n" -> NAny))
    assert(Baselines.wnPlusPlus(question).isEmpty)
    assert(Baselines.conseil(question).isEmpty)
  }

  test("compatibles that reach the output produce no explanation") {
    val t = Map("r" -> tab((1, "hit", 50)))
    val q = Selection(1, Pred.gt("n", 10), TableAccess(0, "r"))
    val question = Question(q, t, Nip.tup("s" -> NConst("hit"), "id" -> NAny, "n" -> NAny))
    assert(Baselines.wnPlusPlus(question).isEmpty)
  }

  test("a compatible without an original-world join partner dies at the join") {
    val l = Seq((1L, "hit"), (2L, "other")).toDF("k", "s")
    val r = Seq((2L, 9.0)).toDF("k2", "v")
    val q = Join(1, JoinKind.Inner, Seq("k" -> "k2"),
      TableAccess(0, "l"), TableAccess(2, "r"))
    val question = Question(q, Map("l" -> l, "r" -> r),
      Nip.tup("s" -> NConst("hit"), "k" -> NAny, "k2" -> NAny, "v" -> NAny))
    assert(Baselines.wnPlusPlus(question) == Seq(Set(1)))
  }

  test("join blame goes to the filter when the compatible dies before it") {
    val l = Seq((1L, "hit", 5)).toDF("k", "s", "n")
    val r = Seq((1L, 9.0)).toDF("k2", "v")
    val q = Join(2, JoinKind.Inner, Seq("k" -> "k2"),
      Selection(1, Pred.gt("n", 10), TableAccess(0, "l")),
      TableAccess(3, "r"))
    val question = Question(q, Map("l" -> l, "r" -> r),
      Nip.tup("s" -> NConst("hit"), "k" -> NAny, "n" -> NAny, "k2" -> NAny, "v" -> NAny))
    // the compatible's own first failure is the selection, not the join
    assert(Baselines.wnPlusPlus(question) == Seq(Set(1)))
  }

  test("operators on the other branch are never blamed on this compatible") {
    val l = Seq((1L, "hit")).toDF("k", "s")
    val r = Seq((1L, 5)).toDF("k2", "n")
    val q = Join(2, JoinKind.Inner, Seq("k" -> "k2"),
      TableAccess(0, "l"),
      Selection(1, Pred.gt("n", 10), TableAccess(3, "r")))
    val question = Question(q, Map("l" -> l, "r" -> r),
      Nip.tup("s" -> NConst("hit"), "k" -> NAny, "k2" -> NAny, "n" -> NAny))
    // l's compatible dies at the JOIN (its partner was filtered away) —
    // σ1 sits on r's branch and is not on l's lineage path
    assert(Baselines.wnPlusPlus(question) == Seq(Set(2)))
  }

  test("all traced tables are lanes of one witness query") {
    val l = Seq((1L, "hit")).toDF("k", "s")
    val r = Seq((1L, 5)).toDF("k2", "n")
    val q = Join(2, JoinKind.Inner, Seq("k" -> "k2"),
      TableAccess(0, "l"),
      Selection(1, Pred.gt("n", 10), TableAccess(3, "r")))
    val question = Question(q, Map("l" -> l, "r" -> r),
      Nip.tup("s" -> NConst("hit"), "k" -> NAny, "k2" -> NAny, "n" -> NAny),
      baselineCompat = Map("l" -> Pred.eq("s", "hit"), "r" -> PTrue))
    var wn = Seq.empty[Set[Int]]
    assert(queriesRunBy { wn = Baselines.wnPlusPlus(question) } == 1)
    // l's compatible survives σ1 (not on its path) and dies at the join,
    // downstream of r's death at σ1
    assert(wn == Seq(Set(2)))
  }

  test("a compatible with one filtered and one alive partner is not blamed on the join") {
    // both partners share the compatible's key; only one survives σ1
    val l = Seq((1L, "hit")).toDF("k", "s")
    val r = Seq((1L, 5), (1L, 50)).toDF("k2", "n")
    val q = Join(2, JoinKind.Inner, Seq("k" -> "k2"),
      TableAccess(0, "l"),
      Selection(1, Pred.gt("n", 10), TableAccess(3, "r")))
    val question = Question(q, Map("l" -> l, "r" -> r),
      Nip.tup("s" -> NConst("hit"), "k" -> NAny, "k2" -> NAny, "n" -> NAny))
    assert(Baselines.wnPlusPlus(question).isEmpty)
    assert(Baselines.conseil(question).isEmpty)
  }

  test("a null-key compatible is traced past the join to its own death") {
    val l = Seq((None: Option[Long], "hit", 5)).toDF("k", "s", "n")
    val r = Seq((1L, 9.0)).toDF("k2", "v")
    val q = Selection(3, Pred.gt("n", 10),
      Join(2, JoinKind.Inner, Seq("k" -> "k2"), TableAccess(0, "l"), TableAccess(1, "r")))
    val question = Question(q, Map("l" -> l, "r" -> r),
      Nip.tup("s" -> NConst("hit"), "k" -> NAny, "n" -> NAny, "k2" -> NAny, "v" -> NAny))
    // a null key is never the join's fault (as for RP's retained flag)
    assert(Baselines.wnPlusPlus(question) == Seq(Set(3)))
    assert(Baselines.conseil(question).contains(Set(3)))
  }

  test("baselineCompat overrides the t̄-based compatibility") {
    val t = Map("r" -> tab((1, "a", 5)))
    val q = Selection(1, Pred.gt("n", 10), TableAccess(0, "r"))
    val question = Question(q, t,
      Nip.tup("s" -> NConst("missing"), "id" -> NAny, "n" -> NAny),
      baselineCompat = Map("r" -> Pred.eq("s", "a")))
    assert(Baselines.wnPlusPlus(question) == Seq(Set(1)))
  }
}
