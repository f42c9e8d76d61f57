package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.scenarios.Tables

/** Shared session builder for the spark-submit entrypoints. */
private[jobs] object JobSession {
  def apply(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()

  /** args(0) optionally overrides the TPC-H order count (scale knob, 20000). */
  def orders(args: Array[String]): Long = args.headOption.map(_.toLong).getOrElse(20000L)
}

/** Reproduce paper Table 7 (explanation counts + gold ranks).
  * Usage: spark-submit --class repro.jobs.Table7Job repro.jar [nOrders]
  */
object Table7Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("whynot-table7")
    val all = Tables.scenarios(spark, tpchOrders = JobSession.orders(args))
    println(Tables.renderTable7(all, Tables.run(all)))
    spark.stop()
  }
}

/** Reproduce paper Table 8 (explicit explanation sets). */
object Table8Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("whynot-table8")
    val all = Tables.scenarios(spark, tpchOrders = JobSession.orders(args))
    println(Tables.renderTable8(all, Tables.run(all)))
    spark.stop()
  }
}

/** Reproduce the §6.4 crime comparison (Why-Not vs Conseil vs ours). */
object CrimeJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("whynot-crime")
    val all = Tables.scenarios(spark, tpchOrders = 2000)
    println("Scenario | Why-Not | Conseil | Ours (RP)")
    Tables.crimeComparison(all).foreach { case (n, w, c, o) =>
      println(f"$n%-8s | $w%-8s | $c%-8s | $o")
    }
    spark.stop()
  }
}

/** Explain a single scenario by name (D1..D5, T1..T4, T_ASD, Q1..Q13F, C1..C3).
  * Usage: spark-submit --class repro.jobs.ExplainJob repro.jar <scenario> [nOrders]
  */
object ExplainJob {
  def main(args: Array[String]): Unit = {
    require(args.nonEmpty, "usage: ExplainJob <scenario-name> [nOrders]")
    val spark = JobSession("whynot-explain")
    val all = Tables.scenarios(spark, tpchOrders = JobSession.orders(args.drop(1)))
    val s = all.find(_.name.equalsIgnoreCase(args(0))).getOrElse(
      sys.error(s"unknown scenario ${args(0)}; have ${all.map(_.name).mkString(", ")}"))
    println(s"${s.name}: ${s.description}")
    val r = s.runAll()
    println(s"WN++:   ${r.wn.mkString("  ")}")
    println(s"RPnoSA: ${r.rpNoSa.mkString("  ")}")
    println(s"RP:     ${r.rp.mkString("  ")}")
    spark.stop()
  }
}
