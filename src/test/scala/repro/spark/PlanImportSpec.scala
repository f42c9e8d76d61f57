package repro.spark

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{AltGroup, Explain, Question}
import repro.data.Person
import repro.nrab._
import repro.whynot._

/** Catalyst integration: queries authored with the plain DataFrame API
  * are lifted into NRAB via [[PlanImport]] and explained end-to-end.
  */
class PlanImportSpec extends SparkSpec {

  private def personView(): Unit =
    Person.table(spark).createOrReplaceTempView("person")

  test("filter + project imports to Selection + Projection") {
    personView()
    val df = spark.table("person").filter(col("name") === "Sue").select("name")
    val op = PlanImport(df)
    val ops = op.allOps
    assert(ops.exists(_.isInstanceOf[Projection]))
    assert(ops.exists { case Selection(_, Cmp("=", Attr("name"), Lit("Sue")), _) => true; case _ => false })
    assert(ops.exists { case TableAccess(_, "person") => true; case _ => false })
  }

  test("imported query evaluates identically to the DataFrame") {
    personView()
    val df = spark.table("person").filter(col("name") =!= "Peter").select("name")
    val op = PlanImport(df)
    val mine = Eval(op, Map("person" -> Person.table(spark))).collect().map(_.getString(0)).sorted
    assert(mine.toSeq == df.collect().map(_.getString(0)).sorted.toSeq)
  }

  test("explode of an array-of-struct imports to a relation flatten") {
    personView()
    val df = spark.table("person")
      .select(col("name"), explode(col("address2")).as("x"))
      .select(col("name"), col("x.city").as("city"), col("x.year").as("year"))
    val op = PlanImport(df)
    assert(op.allOps.exists { case FlattenRel(_, "address2", false, _, _) => true; case _ => false })
    val out = Eval(op, Map("person" -> Person.table(spark)))
    assert(out.columns.toSeq == Seq("name", "city", "year"))
    assert(out.count() == 4)
  }

  test("aggregate imports with keys and functions") {
    personView()
    val df = spark.table("person")
      .select(col("name"), explode(col("address2")).as("x"))
      .select(col("name"), col("x.year").as("year"))
      .groupBy("name").agg(count(col("year")).as("n"), max(col("year")).as("latest"))
    val op = PlanImport(df)
    val agg = op.allOps.collectFirst { case a: Agg => a }.get
    assert(agg.groupBy == Seq("name" -> "name"))
    assert(agg.aggs.map(a => (a.func, a.out)) == Seq((AggFunc.Count, "n"), (AggFunc.Max, "latest")))
  }

  private def dupView() = {
    import spark.implicits._
    val t = Seq(("a", 1), ("a", 1), ("a", 2), ("b", 3)).toDF("g", "v")
    t.createOrReplaceTempView("dup")
    t
  }

  test("count(DISTINCT x) imports as count-distinct and evaluates like the DataFrame") {
    val t = dupView()
    val df = spark.table("dup").groupBy("g").agg(countDistinct(col("v")).as("n"))
    def counts(d: org.apache.spark.sql.DataFrame) = d.collect().map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(counts(Eval(PlanImport(df), Map("dup" -> t))) == counts(df))
  }

  test("other DISTINCT aggregates and FILTER clauses raise UnsupportedPlanException") {
    dupView()
    intercept[PlanImport.UnsupportedPlanException] {
      PlanImport(spark.table("dup").groupBy("g").agg(sum_distinct(col("v")).as("s")))
    }
    intercept[PlanImport.UnsupportedPlanException] {
      PlanImport(spark.sql("SELECT g, count(v) FILTER (WHERE v > 1) AS n FROM dup GROUP BY g"))
    }
  }

  test("equi-join imports with sides resolved") {
    import spark.implicits._
    Seq((1L, "a"), (2L, "b")).toDF("k", "v").createOrReplaceTempView("jl")
    Seq((1L, "x")).toDF("k2", "w").createOrReplaceTempView("jr")
    val df = spark.table("jl").join(spark.table("jr"), col("k") === col("k2"), "left_outer")
    val op = PlanImport(df)
    val j = op.allOps.collectFirst { case j: Join => j }.get
    assert(j.kind == JoinKind.Left)
    assert(j.conds == Seq("k" -> "k2"))
  }

  test("arithmetic projections import as derived columns") {
    import spark.implicits._
    Seq((2.0, 3.0)).toDF("a", "b").createOrReplaceTempView("arith")
    val df = spark.table("arith").select((col("a") * (lit(1.0) - col("b"))).as("d"))
    val op = PlanImport(df)
    val p = op.allOps.collectFirst { case p: Projection => p }.get
    assert(p.cols == Seq(ProjCol("d", Arith("*", Attr("a"), Arith("-", Lit(1.0), Attr("b"))))))
  }

  test("unsupported plans raise UnsupportedPlanException") {
    personView()
    val df = spark.table("person").limit(1)
    intercept[PlanImport.UnsupportedPlanException] { PlanImport(df) }
  }

  test("end-to-end: the running example authored via the DataFrame API") {
    personView()
    val df = spark.table("person")
      .select(col("name"), explode(col("address2")).as("x"))
      .select(col("name"), col("x.city").as("city"), col("x.year").as("year"))
      .filter(col("year") >= 2019)
      .select("name", "city")
    val op = PlanImport(df)
    // the imported plan has no nesting op (collect_list is not imported),
    // so ask why (NY, Sue) is missing from the flat result
    val q = Question(op, Map("person" -> Person.table(spark)),
      Nip.tup("city" -> NConst("NY"), "name" -> NAny),
      Seq(AltGroup(Seq("person.address2", "person.address1"))))
    val rp = Explain.rp(q)
    val sigma = op.allOps.collectFirst { case s: Selection => s.id }.get
    val flat = op.allOps.collectFirst { case f: FlattenRel => f.id }.get
    assert(rp.map(_.ops) == Seq(Set(sigma), Set(flat, sigma)))
  }
}
