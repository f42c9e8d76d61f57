package repro.perf

import java.lang.management.ManagementFactory
import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.util.QueryExecutionListener
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Spark work per job group, summed from the scheduler's events. The
  * listener bus delivers events asynchronously; read the totals only
  * after the SparkContext has stopped, which drains the bus.
  */
final class JobTotals extends SparkListener {
  final class Totals {
    var jobs = 0L
    var tasks = 0L
    var jobWallMs = 0L
    var taskCpuNs = 0L
    var shuffleWriteBytes = 0L
  }

  val byGroup: mutable.Map[String, Totals] = mutable.Map.empty
  private val jobGroup = mutable.Map.empty[Int, (String, Long)]
  private val stageGroup = mutable.Map.empty[Int, String]

  override def onJobStart(e: SparkListenerJobStart): Unit =
    Option(e.properties).flatMap(p => Option(p.getProperty(JobTotals.GroupKey))).foreach { g =>
      byGroup.getOrElseUpdate(g, new Totals).jobs += 1
      jobGroup(e.jobId) = (g, e.time)
      e.stageIds.foreach(stageGroup(_) = g)
    }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    jobGroup.remove(e.jobId).foreach { case (g, start) => byGroup(g).jobWallMs += e.time - start }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    stageGroup.get(e.stageId).foreach { g =>
      val t = byGroup(g)
      t.tasks += 1
      Option(e.taskMetrics).foreach { m =>
        t.taskCpuNs += m.executorCpuTime
        t.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      }
    }
}

object JobTotals {
  /** Local property under which SparkContext.setJobGroup stores the group. */
  val GroupKey = "spark.jobGroup.id"
}

/** Catalyst phase times of every executed query, with the wall-clock
  * start of its first phase so it can be attributed to the call that ran
  * it (one call runs at a time). Delivered asynchronously, like
  * [[JobTotals]].
  */
final class PhaseTimes extends QueryExecutionListener {
  import PhaseTimes.Phases
  val queries: mutable.ArrayBuffer[Phases] = mutable.ArrayBuffer.empty

  private def add(qe: QueryExecution): Unit = {
    val ph = qe.tracker.phases
    if (ph.nonEmpty) queries.synchronized {
      queries += Phases(ph.values.map(_.startTimeMs).min,
        ph.get("optimization").map(_.durationMs).getOrElse(0L),
        ph.get("planning").map(_.durationMs).getOrElse(0L))
    }
  }

  override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = add(qe)
  override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = add(qe)
}

object PhaseTimes {
  final case class Phases(startMs: Long, optimizeMs: Long, planningMs: Long)
}

/** Process-wide counters read on the driver: CPU, GC and whole-stage
  * codegen compilations (Spark's CodegenMetrics histogram).
  */
object Process {
  private val os = ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  def cpuNs: Long = os.getProcessCpuTime
  def gcMs: Long = gcs.map(_.getCollectionTime.max(0L)).sum
  def codegenCompiles: Long = CodegenMetrics.METRIC_COMPILATION_TIME.getCount
  /** Mean compile time in ms over the histogram's (recent-biased) reservoir. */
  def codegenMeanMs: Double = CodegenMetrics.METRIC_COMPILATION_TIME.getSnapshot.getMean

  /** Heap in use after a full collection, in MiB. */
  def liveHeapMb(): Double = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / Mb
  }

  val Mb: Double = 1024.0 * 1024.0
}
