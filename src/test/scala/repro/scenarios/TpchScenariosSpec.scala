package repro.scenarios

import org.apache.spark.sql.SparkSession
import repro.SparkSpec
import repro.data.NestedTpch
import repro.nrab._

/** Shared scenario data, built once per JVM. */
object TestData {
  lazy val tpch: NestedTpch = NestedTpch(repro.SparkSpec.shared, nOrders = 2000)
}

/** Reproduces the explanation sets of paper Table 8 and the gold-standard
  * ranks of Table 7 for the TPC-H scenarios (nested and flat).
  */
class TpchScenariosSpec extends SparkSpec {
  private lazy val d = TestData.tpch

  private def checkScenario(s: Scenario): Unit = {
    val r = s.runAll()
    assert(r.wn == s.expectedWn, s"${s.name} WN++: ${r.wn}")
    assert(r.rpNoSa == s.expectedRpNoSa, s"${s.name} RPnoSA: ${r.rpNoSa}")
    assert(r.rp == s.expectedRp, s"${s.name} RP: ${r.rp}")
    for (g <- s.gold; rank <- s.goldRank)
      assert(r.goldPosition(g).contains(rank), s"${s.name} gold rank: ${r.goldPosition(g)}")
  }

  test("Q1 (nested): explanations and gold rank")  { checkScenario(TpchScenarios.q1(d)) }
  test("Q1F (flat): explanations and gold rank")   { checkScenario(TpchScenarios.q1F(d)) }
  test("Q3 (nested): explanations and gold rank")  { checkScenario(TpchScenarios.q3(d)) }
  test("Q3F (flat): explanations and gold rank")   { checkScenario(TpchScenarios.q3F(d)) }
  test("Q4 (nested): explanations and gold rank")  { checkScenario(TpchScenarios.q4(d)) }
  test("Q4F (flat): explanations and gold rank")   { checkScenario(TpchScenarios.q4F(d)) }
  test("Q6 (nested): explanations and gold rank")  { checkScenario(TpchScenarios.q6(d)) }
  test("Q6F (flat): explanations and gold rank")   { checkScenario(TpchScenarios.q6F(d)) }
  test("Q10 (nested): explanations and gold rank") { checkScenario(TpchScenarios.q10(d)) }
  test("Q10F (flat): explanations and gold rank")  { checkScenario(TpchScenarios.q10F(d)) }
  test("Q13 (nested): explanations and gold rank") { checkScenario(TpchScenarios.q13(d)) }
  test("Q13F (flat): explanations and gold rank")  { checkScenario(TpchScenarios.q13F(d)) }

  // --- the missing answers really are missing from the original results ---

  test("Q3: order 4986467 is absent from the original result") {
    val s = TpchScenarios.q3(d)
    val out = Eval(s.question.query, d.catalog)
      .filter(s"o_orderkey = ${NestedTpch.Q3OrderKey}")
    assert(out.count() == 0)
  }

  test("Q4: no 3-MEDIUM group in the original result") {
    val s = TpchScenarios.q4(d)
    assert(Eval(s.question.query, d.catalog)
      .filter("o_shippriority = '3-MEDIUM'").count() == 0)
  }

  test("Q10: customer 61402 is absent from the original result") {
    val s = TpchScenarios.q10(d)
    assert(Eval(s.question.query, d.catalog)
      .filter(s"c_custkey = ${NestedTpch.Q10CustKey}").count() == 0)
  }

  test("Q13: no c_count = 0 group under the erroneous inner join") {
    val s = TpchScenarios.q13(d)
    assert(Eval(s.question.query, d.catalog).filter("c_count = 0").count() == 0)
  }

  test("Q13 data has customers without orders (the missing group's witnesses)") {
    val withOrders = d.orders.select("o_custkey").distinct()
    val n = d.customer.join(withOrders,
      d.customer("c_custkey") === withOrders("o_custkey"), "left_anti").count()
    assert(n > 0)
  }

  test("Q13 rerun on nested customers: the inner flatten is the explanation (§6.4)") {
    import repro.core._
    import repro.whynot._
    val q = Agg(124, Seq("c_count" -> "c_count"), Seq(AggSpec(AggFunc.Count, "c_custkey", "custdist")),
      Agg(125, Agg.keys("c_custkey"), Seq(AggSpec(AggFunc.Count, "o_orderkey", "c_count")),
        FlattenRel(48, "c_orders", outer = false,
          Projection(130, ProjCol.keep("c_custkey", "c_orders"),
            TableAccess(131, "customerNested")))))
    val question = Question(q, d.catalog,
      Nip.tup("c_count" -> NConst(0L), "custdist" -> NAny))
    assert(Explain.rp(question).map(_.labels) == Seq(Set("F^I48")))
  }

  test("intended (gold) Q3 returns the missing order") {
    // repair σ26 -> BUILDING and σ27 -> 1995-03-15: the order appears
    val fixed =
      Agg(25, Agg.keys("o_orderkey", "o_orderdate", "o_shippriority"),
        Seq(AggSpec(AggFunc.Sum, Some(Arith("*", Attr("l_extendedprice"),
          Arith("-", Lit(1.0), Attr("l_discount")))), "revenue")),
        Selection(26, Pred.eq("c_mktsegment", "BUILDING"),
          Selection(102, Pred.lt("o_orderdate", "1995-03-15"),
            Selection(27, Pred.gt("l_commitdate", "1995-03-15"),
              Join(103, JoinKind.Inner, Seq("c_custkey" -> "o_custkey"),
                TableAccess(104, "customer"),
                FlattenRel(105, "o_lineitems", outer = false, TableAccess(106, "nestedOrders")))))))
    assert(Eval(fixed, d.catalog).filter(s"o_orderkey = ${NestedTpch.Q3OrderKey}").count() == 1)
  }

  test("intended (gold) Q13 with left outer join returns the c_count=0 group") {
    val fixed = Agg(124, Seq("c_count" -> "c_count"), Seq(AggSpec(AggFunc.Count, "c_custkey", "custdist")),
      Agg(125, Agg.keys("c_custkey"), Seq(AggSpec(AggFunc.Count, "o_orderkey", "c_count")),
        Join(39, JoinKind.Left, Seq("c_custkey" -> "o_custkey"),
          Projection(126, ProjCol.keep("c_custkey"), TableAccess(127, "customer")),
          Projection(128, ProjCol.keep("o_orderkey", "o_custkey"), TableAccess(129, "orders")))))
    assert(Eval(fixed, d.catalog).filter("c_count = 0").count() == 1)
  }
}

object SparkFor { def apply(): SparkSession = repro.SparkSpec.shared }
