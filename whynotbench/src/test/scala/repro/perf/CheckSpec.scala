package repro.perf

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Question
import repro.nrab.TableAccess
import repro.scenarios.Scenario
import repro.whynot.NTup

class CheckSpec extends AnyFunSuite {

  // expectations only: the checker never touches the question's data
  private val scenario = Scenario("Qx", "checker fixture",
    Question(TableAccess(1, "t"), Map.empty, NTup(Seq.empty)),
    expectedWn = Seq(Set("σ2")),
    expectedRpNoSa = Seq(Set("σ2"), Set("σ3")),
    expectedRp = Seq(Set("σ2"), Set("γ4"), Set("γ4", "σ2")),
    goldRank = Some(2), gold = Some(Set("γ4")))

  test("the expected ranked sets pass") {
    val c = new Check
    assert(c.wn(scenario, Seq(Set("σ2"))).isEmpty)
    assert(c.rpNoSa(scenario, Seq(Set("σ2"), Set("σ3"))).isEmpty)
    assert(c.rp(scenario, Seq(Set("σ2"), Set("γ4"), Set("γ4", "σ2"))).isEmpty)
  }

  test("a missing, extra or reordered explanation fails") {
    val c = new Check
    assert(c.wn(scenario, Seq.empty).nonEmpty)
    assert(c.wn(scenario, Seq(Set("σ2"), Set("σ3"))).nonEmpty)
    assert(c.rpNoSa(scenario, Seq(Set("σ3"), Set("σ2"))).nonEmpty)
    assert(c.rp(scenario, Seq(Set("σ2"), Set("γ4"))).nonEmpty)
    assert(c.rp(scenario, Seq(Set("σ2"), Set("γ4"), Set("γ4", "σ2", "σ3"))).nonEmpty)
  }

  test("the gold explanation must sit at the gold rank") {
    val offGold = scenario.copy(goldRank = Some(1))
    assert(new Check().rp(offGold, offGold.expectedRp).exists(_.contains("gold")))
  }

  test("the original query's row count must not change between passes") {
    val c = new Check
    assert(c.orig(scenario, 42).isEmpty)
    assert(c.orig(scenario, 42).isEmpty)
    assert(c.orig(scenario, 41).nonEmpty)
  }

  test("wrong answers and exceptions both count as failed calls") {
    val c = new Check
    val t = new Tally
    assert(t.judge("right", Right(Seq(Set("σ2"))))(c.wn(scenario, _)))
    assert(!t.judge("wrong", Right(Seq(Set("σ3"))))(c.wn(scenario, _)))
    assert(!t.judge("threw", Tally.attempt[Seq[Set[String]]](throw new IllegalStateException("boom")))(
      c.wn(scenario, _)))
    assert((t.attempted, t.failed) == ((3L, 2L)))
  }

  test("errors are not caught as failed calls: they stop the run") {
    assertThrows[AssertionError](Tally.attempt(throw new AssertionError("fatal")))
  }

  test("the result line carries the counts and every metric with its unit") {
    val line = Report.json(correct = false, 5, 1, Seq(Metric("answer_s", "s", Seq(1.0, 3.0, 2.0))))
    assert(line == """{"correct": false, "attempted": 5, "failed": 1, "metrics": {"answer_s": {"value": 2.0, "unit": "s"}}}""")
  }
}
