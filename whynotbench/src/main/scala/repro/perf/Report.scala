package repro.perf

/** One reported metric: its value and the samples it summarises. */
final case class Metric(name: String, unit: String, samples: Seq[Double], value: Double)

object Metric {
  /** A metric whose value is the median of its samples. */
  def apply(name: String, unit: String, samples: Seq[Double]): Metric =
    Metric(name, unit, samples, Stats.median(samples))
}

object Report {

  /** Human-readable lines: name, median, unit, sample count, and the
    * highest percentile with ten samples beyond it, where there is one.
    */
  def print(metrics: Seq[Metric]): Unit = metrics.foreach { m =>
    val tail = Stats.supportedPercentile(m.samples)
      .fold("")(p => f"  p${p._1}%s=${p._2}%.6g")
    println(f"${m.name}%-28s ${m.value}%14.6f ${m.unit}%-6s n=${m.samples.size}$tail")
  }

  /** The result line: correctness, call counts and every metric's median. */
  def json(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[Metric]): String = {
    val ms = metrics.map { m =>
      require(!m.value.isNaN && !m.value.isInfinite, s"${m.name} is not a number")
      s""""${m.name}": {"value": ${m.value}, "unit": "${m.unit}"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
