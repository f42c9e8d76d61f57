package repro.perf

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  private def close(a: Seq[Double], b: Seq[Double]): Boolean =
    a.size == b.size && a.zip(b).forall { case (x, y) => math.abs(x - y) < 1e-9 }

  test("median of odd and even sample counts, order-independent") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    assert(Stats.median(Seq(7.0)) == 7.0)
    assertThrows[IllegalArgumentException](Stats.median(Seq.empty))
  }

  test("quartiles match Python's statistics.quantiles (exclusive method)") {
    // reference values printed by statistics.quantiles(data, n=4)
    assert(close(Stats.quantiles((1 to 10).map(_.toDouble)), Seq(2.75, 5.5, 8.25)))
    assert(close(Stats.quantiles((1 to 5).map(_.toDouble)), Seq(1.5, 3.0, 4.5)))
    assert(close(Stats.quantiles(Seq(1.0, 2.0)), Seq(0.75, 1.5, 2.25)))
    assert(close(Stats.quantiles(Seq(3.1, 2.7, 2.9, 3.3, 2.8, 3.0, 4.1)), Seq(2.8, 3.0, 3.3)))
    assertThrows[IllegalArgumentException](Stats.quantiles(Seq(1.0)))
  }

  test("quartile spread is the interquartile distance over the median") {
    assert(math.abs(Stats.quartileSpread((1 to 10).map(_.toDouble)) - (8.25 - 2.75) / 5.5) < 1e-12)
    assert(Stats.quartileSpread(Seq.fill(10)(2.0)) == 0.0)
  }

  test("the reported percentile is the highest with ten samples beyond it") {
    assert(Stats.supportedPercentile((1 to 19).map(_.toDouble)).isEmpty)
    assert(Stats.supportedPercentile((1 to 20).map(_.toDouble)) == Some(50.0 -> 10.0))
    assert(Stats.supportedPercentile((1 to 100).map(_.toDouble)) == Some(90.0 -> 90.0))
    assert(Stats.supportedPercentile((1 to 1000).map(_.toDouble)) == Some(99.0 -> 990.0))
  }

  test("a typical pass sums per-question medians over all passes, so one slow call is outvoted") {
    def pass(a: Double, b: Double) =
      PassTimes(0, 0, 0, a + b, Seq(("Q1", Call.Rp: Call) -> a, ("Q2", Call.Rp: Call) -> b))
    // two of three passes have one slow question each
    val passes = Seq(pass(10.0, 1.0), pass(1.0, 10.0), pass(1.0, 1.0))
    assert(Stats.median(passes.map(_.rp)) == 11.0)
    assert(PassTimes.typical(passes, Set(Call.Rp)) == 2.0)
    assert(PassTimes.typical(passes, Set(Call.Orig)) == 0.0)
  }
}
