package repro.perf

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.data.{Crime, Dblp, NestedTpch, Twitter}
import repro.nrab.TableAccess
import repro.scenarios.{CrimeScenarios, DblpScenarios, Scenario, TpchScenarios, TwitterScenarios}

/** Generated tables of one workload and the questions asked over them. */
trait WorkloadData {
  /** Every generated table by name. */
  def catalog: Map[String, DataFrame]

  /** The workload's scenarios, built over ``fresh`` handles of the tables. */
  def scenarios(fresh: DataFrame => DataFrame): Seq[Scenario]
}

/** A workload: how to generate it at a seed (None = each generator's own
  * default seed, the one the expected explanation sets were written for).
  * NOTES.md records why each workload exists and how its size was chosen.
  */
final case class Workload(name: String, generate: (SparkSession, Option[Long]) => WorkloadData)

object Workloads {

  val all: Seq[Workload] = Seq(
    // SA-heavy: RP traces all 6 SAs of each question and dominates a pass
    Workload("tpch-sa", (spark, seed) =>
      tpch(spark, seed, TpchSaOrders, d => Seq(TpchScenarios.q1F(d), TpchScenarios.q6F(d)))),
    // small nested questions (2 SAs each), bound by fixed per-question driver work;
    // T3 stands in for T1, which fails at most seeds (Twitter id collision, NOTES.md)
    Workload("nested-small", (spark, seed) => nestedSmall(spark, seed, Set("D4", "T3", "T_ASD", "C3"))))

  val TpchSaOrders = 20000L
  val DblpRecords = 10000
  val Tweets = 8000

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; have ${all.map(_.name).mkString(", ")}"))

  /** A new DataFrame handle over the same (cached) plan: no memo keyed on
    * a handle can survive from one pass to the next.
    */
  def freshHandle(df: DataFrame): DataFrame =
    df.select(df.columns.toIndexedSeq.map(c => df.col(s"`$c`")): _*)

  /** Names of the tables a scenario's query reads. */
  def tablesRead(s: Scenario): Seq[String] =
    s.question.query.allOps.collect { case TableAccess(_, n) => n }

  private def tpch(spark: SparkSession, seed: Option[Long], orders: Long,
                   pick: NestedTpch => Seq[Scenario]): WorkloadData = {
    val d = seed.fold(NestedTpch(spark, nOrders = orders))(s => NestedTpch(spark, nOrders = orders, seed = s))
    new WorkloadData {
      def catalog: Map[String, DataFrame] = d.catalog
      def scenarios(fresh: DataFrame => DataFrame): Seq[Scenario] = pick(NestedTpch(
        fresh(d.lineitem), fresh(d.orders), fresh(d.customer), fresh(d.nation),
        fresh(d.nestedOrders), fresh(d.customerNested)))
    }
  }

  private def nestedSmall(spark: SparkSession, seed: Option[Long], names: Set[String]): WorkloadData = {
    val dblp = seed.fold(Dblp.tables(spark, nRecords = DblpRecords))(
      s => Dblp.tables(spark, nRecords = DblpRecords, seed = s))
    val twitter = seed.fold(Twitter.tables(spark, nTweets = Tweets))(
      s => Twitter.tables(spark, nTweets = Tweets, seed = s))
    val crime = seed.fold(Crime.tables(spark))(s => Crime.tables(spark, seed = s))
    new WorkloadData {
      def catalog: Map[String, DataFrame] = dblp ++ twitter ++ crime
      def scenarios(fresh: DataFrame => DataFrame): Seq[Scenario] = {
        def f(t: Map[String, DataFrame]) = t.map { case (k, v) => k -> fresh(v) }
        (DblpScenarios.all(f(dblp)) ++ TwitterScenarios.all(f(twitter)) ++ CrimeScenarios.all(f(crime)))
          .filter(s => names(s.name))
      }
    }
  }
}
