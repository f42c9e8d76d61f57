package repro.perf

import org.apache.spark.sql.SparkSession
import repro.baselines.Baselines
import repro.core.{Explain, Explanation, Placement, Question, SchemaAlts, Trace}
import repro.nrab.Eval
import repro.scenarios.Scenario
import scala.collection.mutable

/** The why-not benchmark: one JVM, one workload, one client asking one
  * question at a time (closed loop).
  *
  * {{{
  * Main --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--workdir <dir>]
  * }}}
  *
  * Set-up (session, data at the seed, cached tables, scenarios) runs
  * [[Main.SetupRepeats]] times and reports its median. Untimed warm-up
  * passes follow; then passes are timed until ``--seconds`` have passed
  * (at least [[Main.MinTimedPasses]]).
  * A pass asks every question of the workload through the public entry
  * points — `Eval(q).count()`, `Baselines.wnPlusPlus`, `Explain.rpNoSA`,
  * `Explain.rp` — over freshly built questions, and judges every answer.
  *
  * With ``--trace 1`` untraced passes alternate with traced passes,
  * which tag each call with a Spark job group and re-drive RP's loop
  * from outside, layer by layer, to split its time (see NOTES.md).
  * The last stdout line is the JSON result.
  */
object Main {

  final case class Opts(workload: String, seed: Option[Long], seconds: Double, trace: Boolean,
                        workdir: String)

  val SetupRepeats = 3
  /** Warm-up runs at least this many passes and this long: on 4 cores the
    * JIT needs ~20 s of passes before pass times level off. */
  val MinWarmPasses = 2
  val WarmSeconds = 20.0
  val MinTimedPasses = 3

  def parse(args: Array[String]): Opts = {
    def fail(msg: String): Nothing = throw new IllegalArgumentException(msg)
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => fail(s"expected --key value pairs, got ${other.mkString(" ")}")
    }.toMap
    val unknown = kv.keySet -- Set("workload", "seed", "seconds", "trace", "workdir")
    if (unknown.nonEmpty) fail(s"unknown options ${unknown.mkString(", ")}")
    val trace = kv.getOrElse("trace", "0") match {
      case "0" => false
      case "1" => true
      case t => fail(s"--trace must be 0 or 1, got $t")
    }
    val seconds = kv.getOrElse("seconds", "20").toDouble
    if (!(seconds > 0)) fail("--seconds must be positive")
    Opts(kv.getOrElse("workload", fail("--workload is required")), kv.get("seed").map(_.toLong),
      seconds, trace, kv.getOrElse("workdir", "whynotbench/target/run"))
  }

  def session(workdir: String): SparkSession =
    SparkSession.builder
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("whynotbench")
      // the settings of the jobs' JobSession: what the jobs run is measured
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$workdir/spark-local")
      .config("spark.sql.warehouse.dir", s"$workdir/spark-warehouse")
      .getOrCreate()

  private def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  def main(args: Array[String]): Unit = {
    val opts = try parse(args) catch {
      case e: IllegalArgumentException =>
        Console.err.println(s"whynotbench: ${e.getMessage}")
        sys.exit(2)
    }
    val workload = try Workloads.byName(opts.workload) catch {
      case e: IllegalArgumentException =>
        Console.err.println(s"whynotbench: ${e.getMessage}")
        sys.exit(2)
    }
    val result = run(workload, opts)
    println(result)
    Console.out.flush()
    sys.exit(0)
  }

  /** Everything one run measures; returns the JSON result line. */
  def run(workload: Workload, opts: Opts): String = {
    // ---- set-up, repeated; the last session and data stay -----------------
    var spark: SparkSession = null
    var data: WorkloadData = null
    val setups = (1 to SetupRepeats).map { _ =>
      if (spark != null) spark.stop()
      val t0 = System.nanoTime()
      spark = session(opts.workdir)
      data = workload.generate(spark, opts.seed)
      // materialise the cache of every table the questions read
      data.scenarios(Workloads.freshHandle).flatMap(Workloads.tablesRead).distinct
        .foreach(t => data.catalog(t).count())
      secs(t0)
    }
    val jobs = new JobTotals
    val phases = new PhaseTimes
    if (opts.trace) {
      spark.sparkContext.addSparkListener(jobs)
      spark.listenerManager.register(phases)
    }

    val check = new Check
    val warmTally = new Tally
    val tally = new Tally
    val driver = new PassDriver(spark, check)

    // ---- warm-up: JIT and whole-stage codegen settle ----------------------
    val w0 = System.nanoTime()
    var warmPasses = 0
    while (warmPasses < MinWarmPasses || secs(w0) < WarmSeconds) {
      val p = driver.pass(data.scenarios(Workloads.freshHandle), warmTally, None)
      Console.err.println(f"[whynotbench] warm-up pass: answer ${p.answer}%.3f s, orig ${p.orig}%.3f s")
      warmPasses += 1
    }
    val warmup = secs(w0)

    // ---- timed passes ------------------------------------------------------
    val plain = mutable.ArrayBuffer.empty[PassTimes]
    val traced = mutable.ArrayBuffer.empty[(PassTimes, TracedPass)]
    val t0 = System.nanoTime()
    while (plain.size + traced.size < MinTimedPasses || secs(t0) < opts.seconds) {
      val scenarios = data.scenarios(Workloads.freshHandle)
      if (opts.trace && plain.size > traced.size) {
        val tp = new TracedPass(traced.size)
        traced += (driver.pass(scenarios, tally, Some(tp)) -> tp)
        tp.liveHeapMb = Process.liveHeapMb()
      } else {
        plain += driver.pass(scenarios, tally, None)
        Console.err.println(f"[whynotbench] timed pass: answer ${plain.last.answer}%.3f s, orig ${plain.last.orig}%.3f s")
      }
    }
    val cachedMb = spark.sparkContext.getRDDStorageInfo.map(_.memSize).sum / Process.Mb
    // stopping the context drains the listener bus: totals are complete after it
    spark.stop()

    Console.err.println(f"[whynotbench] ${workload.name} seed=${opts.seed.fold("default")(_.toString)} " +
      f"set-up ${setups.map(s => f"$s%.2f").mkString("/")} s, warm-up $warmPasses passes in $warmup%.1f s, " +
      s"timed ${plain.size} plain + ${traced.size} traced passes; warm-up failures ${warmTally.failed}")

    plain.flatMap(_.perQuestion).groupBy(_._1).toSeq.sortBy(k => (k._1._1, k._1._2.key)).foreach {
      case ((q, c), v) => Console.err.println(f"[whynotbench]   ${s"$q:${c.key}"}%-16s ${Stats.median(v.map(_._2).toSeq)}%.3f s")
    }
    def typical(calls: Call*) = PassTimes.typical(plain.toSeq, calls.toSet)
    val metrics: Seq[Metric] =
      if (!opts.trace) Seq(
        Metric("setup_s", "s", setups),
        Metric("answer_s", "s", plain.toSeq.map(_.answer), typical(Call.Wn, Call.RpNoSa, Call.Rp)),
        Metric("rp_s", "s", plain.toSeq.map(_.rp), typical(Call.Rp)),
        Metric("orig_s", "s", plain.toSeq.map(_.orig), typical(Call.Orig)),
        Metric("cached_mb", "MB", Seq(cachedMb)))
      else layerMetrics(plain.toSeq, traced.toSeq, jobs, phases, warmup)
    val splitValid = traced.forall(_._2.parity)
    if (!splitValid) Console.err.println(
      "[whynotbench] the re-driven RP loop disagreed with Explain.rp; its layer split is not reported")
    Report.print(metrics)
    Report.json(correct = tally.failed == 0 && splitValid, tally.attempted, tally.failed, metrics)
  }

  /** Per-layer metrics, each the median over the traced passes. */
  private def layerMetrics(plain: Seq[PassTimes], traced: Seq[(PassTimes, TracedPass)],
                           jobs: JobTotals, phases: PhaseTimes, warmup: Double): Seq[Metric] = {
    val tps = traced.map(_._2)
    // attribute each query's Catalyst phases to the traced call it ran in
    phases.queries.foreach { q =>
      tps.find(_.windows.exists { case (a, b) => q.startMs >= a && q.startMs <= b }).foreach { tp =>
        tp.add("spark.optimize_s", q.optimizeMs / 1000.0)
        tp.add("spark.planning_s", q.planningMs / 1000.0)
      }
    }
    tps.foreach { tp =>
      val mine = jobs.byGroup.collect { case (g, t) if g.startsWith(tp.groupPrefix) => t }
      tp.add("spark.jobs", mine.map(_.jobs).sum.toDouble)
      tp.add("spark.tasks", mine.map(_.tasks).sum.toDouble)
      tp.add("spark.job_wall_s", mine.map(_.jobWallMs).sum / 1000.0)
      tp.add("spark.task_cpu_s", mine.map(_.taskCpuNs).sum / 1e9)
      tp.add("spark.shuffle_write_mb", mine.map(_.shuffleWriteBytes).sum / Process.Mb)
    }
    def m(name: String, unit: String)(f: TracedPass => Double): Metric = Metric(name, unit, tps.map(f))
    def layer(name: String, unit: String): Metric = m(name, unit)(_.values.getOrElse(name, 0.0))

    val split = Seq(
      layer("schemaalts.enumerate_s", "s"), layer("schemaalts.sa_count", "count"),
      layer("placement.backtrace_s", "s"),
      m("trace.calls", "count")(tp => tp.values.getOrElse("schemaalts.sa_count", 0.0) + 2 * tp.questions),
      layer("trace.build_s", "s"), layer("trace.width_cols", "count"), layer("trace.plan_nodes", "count"),
      layer("explain.witness_s", "s"), layer("explain.witness_groups", "count"), layer("explain.rank_s", "s"),
      m("explain.sa_useful_frac", "ratio")(tp =>
        tp.values.getOrElse("explain.sa_useful", 0.0) / tp.values.getOrElse("schemaalts.sa_count", 1.0)),
      layer("explain.sa_useful", "count"))
    val spark = Seq(
      layer("spark.optimize_s", "s"), layer("spark.planning_s", "s"), layer("spark.jobs", "count"),
      layer("spark.tasks", "count"), layer("spark.job_wall_s", "s"), layer("spark.task_cpu_s", "s"),
      layer("spark.shuffle_write_mb", "MB"), layer("spark.codegen_compiles", "count"),
      layer("spark.codegen_compile_s", "s"))
    val calls = Seq(
      Metric("explain.rpnosa_s", "s", traced.map(_._1.rpNoSa)),
      Metric("baselines.wnpp_s", "s", traced.map(_._1.wn)),
      layer("process.cpu_s", "s"), layer("process.gc_s", "s"), m("process.live_heap_mb", "MB")(_.liveHeapMb))
    val plainAnswer = Stats.median(plain.map(_.answer))
    val bench = Seq(
      Metric("bench.warmup_s", "s", Seq(warmup)),
      Metric("bench.rp_overhead_x", "ratio",
        Seq(PassTimes.typical(plain, Set(Call.Rp)) / PassTimes.typical(plain, Set(Call.Orig)))),
      Metric("bench.trace_overhead_frac", "ratio", Seq(Stats.median(traced.map(_._1.answer)) / plainAnswer - 1.0)))
    (if (tps.forall(_.parity)) split else Seq.empty) ++ spark ++ calls ++ bench
  }
}

/** Seconds spent per entry point in one pass, and every timed call of
  * the pass by question and entry point (each run of the original query).
  */
final case class PassTimes(orig: Double, wn: Double, rpNoSa: Double, rp: Double,
                           perQuestion: Seq[((String, Call), Double)] = Seq.empty) {
  /** Every question answered by WN++, RPnoSA and RP. */
  def answer: Double = wn + rpNoSa + rp
}

object PassTimes {
  /** A typical pass over ``calls``: per question and entry point the median
    * of its calls over all ``passes``, summed. A slow call in one pass (a GC
    * pause, a recompiled class) is outvoted by the other passes' calls.
    */
  def typical(passes: Seq[PassTimes], calls: Set[Call]): Double =
    passes.flatMap(_.perQuestion).filter(e => calls(e._1._2)).groupBy(_._1).values
      .map(v => Stats.median(v.map(_._2))).sum
}

/** What one traced pass measured: layer values, the wall-clock windows of
  * its calls, and whether the re-driven RP loop matched `Explain.rp`.
  */
final class TracedPass(val index: Int) {
  val groupPrefix = s"whynotbench:$index:"
  val values: mutable.Map[String, Double] = mutable.Map.empty
  val windows: mutable.ArrayBuffer[(Long, Long)] = mutable.ArrayBuffer.empty
  var questions = 0
  var parity = true
  var liveHeapMb = 0.0

  def add(name: String, v: Double): Unit = values(name) = values.getOrElse(name, 0.0) + v

  def time[A](name: String)(body: => A): A = {
    val t0 = System.nanoTime()
    try body finally add(name, (System.nanoTime() - t0) / 1e9)
  }
}

/** Asks every question of a pass through the public entry points. */
final class PassDriver(spark: SparkSession, check: Check) {

  def pass(scenarios: Seq[Scenario], tally: Tally, traced: Option[TracedPass]): PassTimes = {
    val spent = mutable.Map.empty[Call, Double].withDefaultValue(0.0)
    val perQ = mutable.ArrayBuffer.empty[((String, Call), Double)]

    /** One judged call and its wall time in seconds. */
    def call[A](s: Scenario, c: Call)(body: => A)(judge: A => Option[String]): (Either[Exception, A], Double) = {
      traced.foreach(tp => spark.sparkContext.setJobGroup(tp.groupPrefix + s"${s.name}:${c.key}", c.key))
      val cpu0 = Process.cpuNs
      val gc0 = Process.gcMs
      val cg0 = Process.codegenCompiles
      val wall0 = System.currentTimeMillis()
      val t0 = System.nanoTime()
      val outcome = Tally.attempt(body)
      val seconds = (System.nanoTime() - t0) / 1e9
      traced.foreach { tp =>
        tp.windows += (wall0 -> System.currentTimeMillis())
        tp.add("process.cpu_s", (Process.cpuNs - cpu0) / 1e9)
        tp.add("process.gc_s", (Process.gcMs - gc0) / 1000.0)
        val compiles = Process.codegenCompiles - cg0
        tp.add("spark.codegen_compiles", compiles.toDouble)
        tp.add("spark.codegen_compile_s", compiles * Process.codegenMeanMs / 1000.0)
        spark.sparkContext.clearJobGroup()
      }
      tally.judge(s"${s.name} ${c.key}", outcome)(judge)
      (outcome, seconds)
    }
    def spend(s: Scenario, c: Call, seconds: Double): Unit = {
      spent(c) += seconds
      perQ += ((s.name, c) -> seconds)
    }

    scenarios.foreach { s =>
      val q = s.question
      // a short query: it runs a few times, and orig_s takes the median of all its runs
      val origRuns = (1 to PassDriver.OrigRepeats).map { _ =>
        call(s, Call.Orig)(Eval(q.query, q.tables).count())(check.orig(s, _))._2
      }
      spent(Call.Orig) += Stats.median(origRuns)
      perQ ++= origRuns.map(t => (s.name, Call.Orig: Call) -> t)
      spend(s, Call.Wn, call(s, Call.Wn)(
        Baselines.wnPlusPlus(q).map(_.map(Explain.labelOf(q.query, _))))(check.wn(s, _))._2)
      spend(s, Call.RpNoSa, call(s, Call.RpNoSa)(Explain.rpNoSA(q).map(_.labels))(check.rpNoSa(s, _))._2)
      val (rp, rpSeconds) = call(s, Call.Rp)(Explain.rp(q))(r => check.rp(s, r.map(_.labels)))
      spend(s, Call.Rp, rpSeconds)
      traced.foreach { tp =>
        tp.questions += 1
        // parity is judged against Explain.rp's own answer, right or wrong
        val ok = rp.exists(e => PassDriver.redrive(q, tp) == e)
        if (!ok) Console.err.println(s"[whynotbench] split parity failed on ${s.name}")
        tp.parity &&= ok
      }
    }
    PassTimes(spent(Call.Orig), spent(Call.Wn), spent(Call.RpNoSa), spent(Call.Rp), perQ.toSeq)
  }
}

object PassDriver {
  val OrigRepeats = 3

  /** `Explain.rp`'s loop re-driven from outside, one public layer call at
    * a time, with each layer's time and counts added to ``tp``.
    */
  def redrive(q: Question, tp: TracedPass): Seq[Explanation] = {
    val ts = q.tableSchemas
    val sas = tp.time("schemaalts.enumerate_s")(SchemaAlts.enumerate(q.query, q.altGroups, ts))
    tp.add("schemaalts.sa_count", sas.size)
    val found = mutable.Map.empty[Set[Int], Explanation]
    sas.foreach { sa =>
      val placement = tp.time("placement.backtrace_s")(Placement.backtrace(sa.query, q.nip, ts))
      val traced = tp.time("trace.build_s")(Trace.trace(sa.query, q.tables, placement, ts))
      tp.add("trace.width_cols", traced.df.columns.length)
      var nodes = 0
      traced.df.queryExecution.analyzed.foreach(_ => nodes += 1)
      tp.add("trace.plan_nodes", nodes)
      val failSets = tp.time("explain.witness_s")(Explain.witnessFailSets(traced))
      tp.add("explain.witness_groups", failSets.size)
      var useful = false
      failSets.foreach { case (failSet, n) =>
        val ops = sa.sr ++ failSet
        if (ops.nonEmpty) {
          useful = true
          found(ops) = found.get(ops) match {
            case Some(prev) => prev.copy(saIndex = math.min(prev.saIndex, sa.index),
                                         witnesses = prev.witnesses + n)
            case None => Explanation(ops, ops.map(Explain.labelOf(q.query, _)), sa.index, n)
          }
        }
      }
      if (useful) tp.add("explain.sa_useful", 1)
    }
    tp.time("explain.rank_s")(Explain.rank(q.query, found.values.toSeq))
  }
}
