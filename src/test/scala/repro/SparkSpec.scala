package repro

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** Spark queries executed by ``body``, counted by a listener. Listener
    * events arrive asynchronously; a marker query flushes them.
    */
  def queriesRunBy(body: => Unit): Int = {
    val marker = "__query_count_marker"
    val (count, markers) = (new AtomicInteger, new AtomicInteger)
    val listener = new QueryExecutionListener {
      private def seen(qe: QueryExecution): Unit =
        if (qe.analyzed.output.exists(_.name == marker)) markers.incrementAndGet()
        else count.incrementAndGet()
      def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = seen(qe)
      def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = seen(qe)
    }
    def flush(n: Int): Unit = {
      spark.range(1).toDF(marker).collect()
      val deadline = System.nanoTime() + 60L * 1000 * 1000 * 1000
      while (markers.get < n && System.nanoTime() < deadline) Thread.sleep(10)
      assert(markers.get == n, "query listener events did not arrive")
    }
    spark.listenerManager.register(listener)
    try {
      flush(1)
      count.set(0)
      body
      flush(2)
      count.get
    } finally spark.listenerManager.unregister(listener)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
