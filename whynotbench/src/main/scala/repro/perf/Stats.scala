package repro.perf

/** Order statistics for the benchmark's samples. Quantiles use the
  * exclusive method (Python's `statistics.quantiles`, default), so the
  * quartile spread printed here is the one a reader recomputes from the
  * per-run values.
  */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2.0
  }

  /** Cut points dividing ``xs`` into ``n`` groups, exclusive method:
    * the i-th cut sits at position i·(m+1)/n of the m sorted samples,
    * interpolated linearly and clamped to the inner samples.
    */
  def quantiles(xs: Seq[Double], n: Int = 4): Seq[Double] = {
    require(xs.size >= 2, "quantiles need at least two samples")
    require(n >= 1)
    val s = xs.sorted
    val m = s.size + 1
    (1 until n).map { i =>
      val j = math.min(math.max(i * m / n, 1), s.size - 1)
      val delta = i * m - j * n
      (s(j - 1) * (n - delta) + s(j) * delta) / n
    }
  }

  /** Distance between the first and third quartile as a share of the
    * median: the run-to-run spread the benchmark's bounds are judged by.
    */
  def quartileSpread(xs: Seq[Double]): Double = {
    val q = quantiles(xs, 4)
    (q(2) - q(0)) / median(xs)
  }

  /** The highest percentile in {50, 90, 95, 99, 99.9} that has at least
    * ten samples above it, with its value; None when even the median
    * lacks ten samples beyond it (fewer than 20 samples).
    */
  def supportedPercentile(xs: Seq[Double]): Option[(Double, Double)] = {
    val s = xs.sorted
    val n = s.size
    Seq(99.9, 99.0, 95.0, 90.0, 50.0).find(p => n * (100.0 - p) / 100.0 >= 10.0).map { p =>
      val rank = math.ceil(p * n / 100.0 - 1e-9).toInt.max(1) // nearest-rank
      p -> s(rank - 1)
    }
  }
}
