package repro.scenarios

import org.apache.spark.sql.functions.{col, sum => ssum}
import repro.core.{AltGroup, Question}
import repro.data.NestedTpch
import repro.nrab._
import repro.whynot._

/** The paper's TPC-H scenarios (Table 9) on the nested schema (lineitems
  * inside orders) and their flat twins (QxF). Operator ids follow the
  * paper's superscripts (σ24, γ23, …); unnumbered operators get ids ≥ 100.
  * Blue-marked errors of Table 9 are encoded verbatim; the gold standard
  * is the set of modified operators.
  */
object TpchScenarios {

  // attribute-alternative groups (paper §6.2) — nested and flat spellings
  private def groupsNested = Seq(
    AltGroup(Seq("nestedOrders.o_lineitems.l_discount", "nestedOrders.o_lineitems.l_tax")),
    AltGroup(Seq("nestedOrders.o_lineitems.l_shipdate", "nestedOrders.o_lineitems.l_commitdate",
      "nestedOrders.o_lineitems.l_receiptdate")),
    AltGroup(Seq("nestedOrders.o_orderpriority", "nestedOrders.o_shippriority")))
  private def groupsFlat = Seq(
    AltGroup(Seq("lineitem.l_discount", "lineitem.l_tax")),
    AltGroup(Seq("lineitem.l_shipdate", "lineitem.l_commitdate", "lineitem.l_receiptdate")),
    AltGroup(Seq("orders.o_orderpriority", "orders.o_shippriority")))

  def all(d: NestedTpch): Seq[Scenario] = Seq(
    q1(d), q3(d), q4(d), q6(d), q10(d), q13(d),
    q1F(d), q3F(d), q4F(d), q6F(d), q10F(d), q13F(d))

  // ---------------------------------------------------------------- Q1 --

  /** Q1: average discount, with the aggregation erroneously summing l_tax
    * (intended: l_discount).
    */
  def q1(d: NestedTpch): Scenario = {
    val q = Agg(23, Seq.empty, Seq(AggSpec(AggFunc.Sum, "l_tax", "avgDisc")),
      Selection(24, Pred.le("l_shipdate", "1998-09-02"),
        FlattenRel(100, "o_lineitems", outer = false, TableAccess(101, "nestedOrders"))))
    q1Like(d, q, groupsNested, "Q1", "TPC-H Q1 (nested), modified aggregation")
  }

  def q1F(d: NestedTpch): Scenario = {
    val q = Agg(23, Seq.empty, Seq(AggSpec(AggFunc.Sum, "l_tax", "avgDisc")),
      Selection(24, Pred.le("l_shipdate", "1998-09-02"), TableAccess(101, "lineitem")))
    q1Like(d, q, groupsFlat, "Q1F", "TPC-H Q1 (flat), modified aggregation")
  }

  private def q1Like(d: NestedTpch, q: Op, groups: Seq[AltGroup],
                     name: String, desc: String): Scenario = {
    val orig = Eval(q, d.catalog).head().getDouble(0)
    val fullTax = d.lineitem.agg(ssum(col("l_tax"))).head().getDouble(0)
    val threshold = (orig + fullTax) / 2.0 // strictly above orig, below relaxed sum
    Scenario(name, desc,
      Question(q, d.catalog, Nip.tup("avgDisc" -> NCmp(">", threshold)), groups),
      expectedWn = Seq(Set("σ24")),
      expectedRpNoSa = Seq(Set("σ24")),
      expectedRp = Seq(Set("σ24"), Set("γ23"), Set("γ23", "σ24")),
      goldRank = Some(2), gold = Some(Set("γ23")))
  }

  // ---------------------------------------------------------------- Q3 --

  /** Q3: unshipped orders; errors: σ26 filters HOUSEHOLD (intended
    * BUILDING) and σ27's constant is typo'd (1995-03-25, intended
    * 1995-03-15).
    */
  def q3(d: NestedTpch): Scenario = {
    val q =
      Agg(25, Agg.keys("o_orderkey", "o_orderdate", "o_shippriority"),
        Seq(AggSpec(AggFunc.Sum, Some(Arith("*", Attr("l_extendedprice"),
          Arith("-", Lit(1.0), Attr("l_discount")))), "revenue")),
        Selection(26, Pred.eq("c_mktsegment", "HOUSEHOLD"),
          Selection(102, Pred.lt("o_orderdate", "1995-03-15"),
            Selection(27, Pred.gt("l_commitdate", "1995-03-25"),
              Join(103, JoinKind.Inner, Seq("c_custkey" -> "o_custkey"),
                TableAccess(104, "customer"),
                FlattenRel(105, "o_lineitems", outer = false, TableAccess(106, "nestedOrders")))))))
    Scenario("Q3", "TPC-H Q3 (nested), two modified selections",
      Question(q, d.catalog, q3Nip, groupsNested),
      expectedWn = Seq(Set("σ27")),
      expectedRpNoSa = Seq(Set("σ26", "σ27")),
      expectedRp = Seq(Set("σ26", "σ27"), Set("σ26", "σ27", "γ25")),
      goldRank = Some(1), gold = Some(Set("σ26", "σ27")))
  }

  def q3F(d: NestedTpch): Scenario = {
    val q =
      Agg(25, Agg.keys("o_orderkey", "o_orderdate", "o_shippriority"),
        Seq(AggSpec(AggFunc.Sum, Some(Arith("*", Attr("l_extendedprice"),
          Arith("-", Lit(1.0), Attr("l_discount")))), "revenue")),
        Selection(102, Pred.lt("o_orderdate", "1995-03-15"),
          Selection(27, Pred.gt("l_commitdate", "1995-03-25"),
            Join(107, JoinKind.Inner, Seq("o_orderkey" -> "l_orderkey"),
              Join(103, JoinKind.Inner, Seq("c_custkey" -> "o_custkey"),
                Selection(26, Pred.eq("c_mktsegment", "HOUSEHOLD"), TableAccess(104, "customer")),
                TableAccess(106, "orders")),
              TableAccess(108, "lineitem")))))
    Scenario("Q3F", "TPC-H Q3 (flat), two modified selections",
      Question(q, d.catalog, q3Nip, groupsFlat,
        baselineCompat = Map("customer" -> Pred.eq("c_custkey", NestedTpch.Q3CustKey))),
      expectedWn = Seq(Set("σ26")),
      expectedRpNoSa = Seq(Set("σ26", "σ27")),
      expectedRp = Seq(Set("σ26", "σ27"), Set("σ26", "σ27", "γ25")),
      goldRank = Some(1), gold = Some(Set("σ26", "σ27")))
  }

  private def q3Nip = Nip.tup(
    "o_orderkey" -> NConst(NestedTpch.Q3OrderKey), "o_orderdate" -> NAny,
    "o_shippriority" -> NAny, "revenue" -> NAny)

  // ---------------------------------------------------------------- Q4 --

  /** Q4: order count by priority; errors: σ28 compares l_shipdate
    * (intended l_commitdate) and γ30 groups on o_shippriority (intended
    * o_orderpriority).
    */
  def q4(d: NestedTpch): Scenario = {
    val distOrd = Agg(109, Seq("d_orderkey" -> "o_orderkey"), Seq(AggSpec.countStar("cnt")),
      Selection(28, Cmp("<", Attr("l_shipdate"), Attr("l_receiptdate")),
        FlattenRel(110, "o_lineitems", outer = false, TableAccess(111, "nestedOrders"))))
    val filterOrd = Selection(29,
      Pred.ge("o_orderdate", "1993-07-01") && Pred.le("o_orderdate", "1993-09-30"),
      TableAccess(112, "nestedOrders"))
    val q = Agg(30, Seq("o_shippriority" -> "o_shippriority"),
      Seq(AggSpec(AggFunc.Count, "o_orderkey", "order_count")),
      Join(113, JoinKind.Inner, Seq("o_orderkey" -> "d_orderkey"), filterOrd, distOrd))
    q4Like(d, q, groupsNested, "Q4", "TPC-H Q4 (nested), modified selection and aggregation")
  }

  def q4F(d: NestedTpch): Scenario = {
    val distOrd = Agg(109, Seq("d_orderkey" -> "l_orderkey"), Seq(AggSpec.countStar("cnt")),
      Selection(28, Cmp("<", Attr("l_shipdate"), Attr("l_receiptdate")),
        TableAccess(111, "lineitem")))
    val filterOrd = Selection(29,
      Pred.ge("o_orderdate", "1993-07-01") && Pred.le("o_orderdate", "1993-09-30"),
      TableAccess(112, "orders"))
    val q = Agg(30, Seq("o_shippriority" -> "o_shippriority"),
      Seq(AggSpec(AggFunc.Count, "o_orderkey", "order_count")),
      Join(113, JoinKind.Inner, Seq("o_orderkey" -> "d_orderkey"), filterOrd, distOrd))
    q4Like(d, q, groupsFlat, "Q4F", "TPC-H Q4 (flat), modified selection and aggregation")
  }

  private def q4Like(d: NestedTpch, q: Op, groups: Seq[AltGroup],
                     name: String, desc: String): Scenario =
    Scenario(name, desc,
      Question(q, d.catalog,
        Nip.tup("o_shippriority" -> NConst("3-MEDIUM"), "order_count" -> NCmp("<", 11000L)),
        groups),
      expectedWn = Seq.empty,
      expectedRpNoSa = Seq.empty,
      expectedRp = Seq(Set("γ30"), Set("γ30", "σ29"), Set("γ30", "σ28"),
        Set("γ30", "σ29", "σ28")),
      goldRank = Some(3), gold = Some(Set("γ30", "σ28")))

  // ---------------------------------------------------------------- Q6 --

  /** Q6: revenue; error: σ33 ranges over l_tax (intended l_discount). */
  def q6(d: NestedTpch): Scenario = {
    val q = Agg(114, Seq.empty, Seq(AggSpec(AggFunc.Sum, "disc_price", "revenue")),
      Projection(31, Seq(ProjCol("disc_price",
        Arith("*", Attr("l_extendedprice"), Attr("l_discount")))),
        Selection(32, Pred.ge("l_shipdate", "1994-01-01") && Pred.le("l_shipdate", "1994-12-31"),
          Selection(33, Pred.ge("l_tax", 0.05) && Pred.le("l_tax", 0.07),
            Selection(34, Pred.lt("l_quantity", 24.0),
              FlattenRel(115, "o_lineitems", outer = false, TableAccess(116, "nestedOrders")))))))
    q6Like(d, q, groupsNested, "Q6", "TPC-H Q6 (nested), one modified selection")
  }

  def q6F(d: NestedTpch): Scenario = {
    val q = Agg(114, Seq.empty, Seq(AggSpec(AggFunc.Sum, "disc_price", "revenue")),
      Projection(31, Seq(ProjCol("disc_price",
        Arith("*", Attr("l_extendedprice"), Attr("l_discount")))),
        Selection(32, Pred.ge("l_shipdate", "1994-01-01") && Pred.le("l_shipdate", "1994-12-31"),
          Selection(33, Pred.ge("l_tax", 0.05) && Pred.le("l_tax", 0.07),
            Selection(34, Pred.lt("l_quantity", 24.0), TableAccess(116, "lineitem"))))))
    q6Like(d, q, groupsFlat, "Q6F", "TPC-H Q6 (flat), one modified selection")
  }

  private def q6Like(d: NestedTpch, q: Op, groups: Seq[AltGroup],
                     name: String, desc: String): Scenario = {
    val orig = Eval(q, d.catalog).head().getDouble(0)
    val threshold = orig / 2.0 // expect less revenue than the erroneous query yields
    Scenario(name, desc,
      Question(q, d.catalog, Nip.tup("revenue" -> NCmp("<", threshold)), groups),
      expectedWn = Seq(Set("σ32")),
      expectedRpNoSa = Seq(
        Set("σ32"), Set("σ33"), Set("σ34"), Set("σ32", "σ33"), Set("σ32", "σ34"),
        Set("σ33", "σ34"), Set("σ32", "σ33", "σ34")),
      expectedRp = Seq(
        Set("σ32"), Set("σ33"), Set("σ34"), Set("σ32", "σ33"), Set("σ32", "σ34"),
        Set("σ33", "σ34"), Set("π31", "σ33"), Set("σ32", "σ33", "σ34"),
        Set("π31", "σ32", "σ33"), Set("π31", "σ33", "σ34"),
        Set("π31", "σ32", "σ33", "σ34")),
      goldRank = Some(2), gold = Some(Set("σ33")))
  }

  // --------------------------------------------------------------- Q10 --

  /** Q10: returned items / lost revenue; errors: σ35 filters returnflag
    * 'A' (intended 'R'), σ36's date range is wrong, π37 computes
    * disc_price from l_tax (intended l_discount).
    */
  def q10(d: NestedTpch): Scenario = {
    val flatOrd = Selection(35, Pred.eq("l_returnflag", "A"),
      Selection(36, Pred.ge("o_orderdate", "1997-10-01") && Pred.le("o_orderdate", "1997-12-31"),
        FlattenRel(117, "o_lineitems", outer = false, TableAccess(118, "nestedOrders"))))
    q10Like(d, flatOrd, groupsNested, "Q10", "TPC-H Q10 (nested), two selections + projection modified")
  }

  def q10F(d: NestedTpch): Scenario = {
    val flatOrd = Selection(35, Pred.eq("l_returnflag", "A"),
      Selection(36, Pred.ge("o_orderdate", "1997-10-01") && Pred.le("o_orderdate", "1997-12-31"),
        Join(117, JoinKind.Inner, Seq("o_orderkey" -> "l_orderkey"),
          TableAccess(118, "orders"), TableAccess(119, "lineitem"))))
    q10Like(d, flatOrd, groupsFlat, "Q10F", "TPC-H Q10 (flat), two selections + projection modified")
  }

  private def q10Like(d: NestedTpch, flatOrd: Op, groups: Seq[AltGroup],
                      name: String, desc: String): Scenario = {
    val keys = Seq("c_custkey", "c_name", "c_acctbal", "c_phone", "n_name",
      "c_address", "c_comment")
    val q = Agg(120, Agg.keys(keys: _*), Seq(AggSpec(AggFunc.Sum, "disc_price", "revenue")),
      Projection(37, ProjCol.keep(keys: _*) :+ ProjCol("disc_price",
        Arith("*", Attr("l_extendedprice"), Arith("-", Lit(1.0), Attr("l_tax")))),
        Join(121, JoinKind.Inner, Seq("c_nationkey" -> "n_nationkey"),
          Join(38, JoinKind.Inner, Seq("c_custkey" -> "o_custkey"),
            TableAccess(122, "customer"), flatOrd),
          TableAccess(123, "nation"))))
    Scenario(name, desc,
      Question(q, d.catalog,
        Nip.tup(("c_custkey" -> NConst(NestedTpch.Q10CustKey)) +:
          keys.tail.map(k => k -> (NAny: Nip)) :+ ("revenue" -> (NCmp(">", 0.0): Nip)): _*),
        groups),
      expectedWn = Seq(Set("⋈38")),
      expectedRpNoSa = Seq(Set("σ35"), Set("σ35", "σ36")),
      expectedRp = Seq(Set("σ35"), Set("σ35", "σ36"), Set("σ35", "π37"),
        Set("σ35", "σ36", "π37")),
      goldRank = Some(4), gold = Some(Set("σ35", "σ36", "π37")))
  }

  // --------------------------------------------------------------- Q13 --

  /** Q13: customer distribution; error: inner join (intended left outer). */
  def q13(d: NestedTpch): Scenario = q13Like(d, "nestedOrders", "Q13",
    "TPC-H Q13 (nested orders relation), modified join")

  def q13F(d: NestedTpch): Scenario = q13Like(d, "orders", "Q13F",
    "TPC-H Q13 (flat), modified join")

  private def q13Like(d: NestedTpch, ordersTable: String, name: String,
                      desc: String): Scenario = {
    val q = Agg(124, Seq("c_count" -> "c_count"), Seq(AggSpec(AggFunc.Count, "c_custkey", "custdist")),
      Agg(125, Agg.keys("c_custkey"), Seq(AggSpec(AggFunc.Count, "o_orderkey", "c_count")),
        Join(39, JoinKind.Inner, Seq("c_custkey" -> "o_custkey"),
          Projection(126, ProjCol.keep("c_custkey"), TableAccess(127, "customer")),
          Projection(128, ProjCol.keep("o_orderkey", "o_custkey"),
            TableAccess(129, ordersTable)))))
    Scenario(name, desc,
      Question(q, d.catalog,
        Nip.tup("c_count" -> NConst(0L), "custdist" -> NAny),
        if (ordersTable == "orders") groupsFlat.take(0) else Seq.empty),
      expectedWn = Seq(Set("⋈39")),
      expectedRpNoSa = Seq(Set("⋈39")),
      expectedRp = Seq(Set("⋈39")),
      goldRank = Some(1), gold = Some(Set("⋈39")))
  }
}
