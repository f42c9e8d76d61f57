package repro.data

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic TPC-H with lineitems nested into orders ([35]-style), the
  * substrate of the paper's Q1/Q3/Q4/Q6/Q10/Q13 scenarios, plus the flat
  * variants (QxF). Generates the TPC-H columns those queries reference
  * (keys, prices, flags, commit/receipt dates, order and ship
  * priorities, customer contact attributes, nation) and plants
  * deterministic witness rows so each scenario's gold-standard explanation
  * is identifiable:
  *
  *  - order 4986467 (customer 999983, BUILDING segment) for Q3/Q3F: all
  *    its lineitems have commitdates in (1995-03-15, 1995-03-25]
  *  - customer 61402 for Q10/Q10F: all its lineitems carry returnflag 'R';
  *    it has orders inside and outside 1997-Q4
  *  - customers above ``nCust`` have no orders at all (Q13/Q13F)
  *
  * Dates are ISO strings (lexicographic comparison = date comparison).
  */
final case class NestedTpch(
    lineitem: DataFrame, orders: DataFrame, customer: DataFrame,
    nation: DataFrame, nestedOrders: DataFrame, customerNested: DataFrame) {
  def catalog: Map[String, DataFrame] = Map(
    "lineitem" -> lineitem, "orders" -> orders, "customer" -> customer,
    "nation" -> nation, "nestedOrders" -> nestedOrders,
    "customerNested" -> customerNested)
}

object NestedTpch {
  val Q3OrderKey = 4986467L
  val Q3CustKey  = 999983L
  val Q10CustKey = 61402L

  val lineitemFields: Seq[String] = Seq(
    "l_orderkey", "l_quantity", "l_extendedprice", "l_discount", "l_tax",
    "l_returnflag", "l_shipdate", "l_commitdate", "l_receiptdate")

  /** Generate at a given order count (≈ rows/4 customers, ×4 lineitems). */
  def apply(spark: SparkSession, nOrders: Long = 2000, seed: Long = 7): NestedTpch = {
    import spark.implicits._
    val nCust = math.max(nOrders / 4, 8)

    def dateCol(r: Column, lo: String, nDays: Int): Column =
      date_format(date_add(lit(lo).cast(DateType), (r * nDays).cast(IntegerType)), "yyyy-MM-dd")

    // ---- random base data -------------------------------------------------
    val prios = array(lit("1-URGENT"), lit("2-HIGH"), lit("3-MEDIUM"),
      lit("4-NOT SPECIFIED"), lit("5-LOW"))
    val shipPrios = array(lit("1-SHIP-HIGH"), lit("2-SHIP-LOW"))
    val ordersRnd = spark.range(1, nOrders + 1).toDF("o_orderkey").select(
      $"o_orderkey",
      (rand(seed) * (nCust / 2) + 1).cast(LongType)        as "o_custkey", // upper half custkeys: no orders (Q13)
      dateCol(rand(seed + 1), "1992-01-01", 2406)          as "o_orderdate",
      element_at(prios, (rand(seed + 2) * 5 + 1).cast("int"))     as "o_orderpriority",
      element_at(shipPrios, (rand(seed + 3) * 2 + 1).cast("int")) as "o_shippriority")

    // first nOrders rows cover every order once (real TPC-H: no order is
    // lineitem-less), the rest are random
    val liRnd = spark.range(nOrders * 4).select(
      when(col("id") < nOrders, col("id") + 1)
        .otherwise((rand(seed + 4) * nOrders + 1).cast(LongType)) as "l_orderkey",
      (rand(seed + 5) * 50 + 1).cast(DoubleType)           as "l_quantity",
      round(rand(seed + 6) * 90000 + 900, 2)               as "l_extendedprice",
      round(rand(seed + 7) * 0.10, 2)                      as "l_discount",
      round(rand(seed + 8) * 0.08, 2)                      as "l_tax",
      element_at(array(lit("N"), lit("R"), lit("A")),
        (rand(seed + 9) * 3 + 1).cast("int"))              as "l_returnflag",
      dateCol(rand(seed + 10), "1992-01-02", 2557)         as "l_shipdate",
      dateCol(rand(seed + 11), "1992-01-03", 2557)         as "l_commitdate",
      dateCol(rand(seed + 12), "1992-01-04", 2557)         as "l_receiptdate")

    val segs = array(lit("BUILDING"), lit("AUTOMOBILE"), lit("MACHINERY"),
      lit("HOUSEHOLD"), lit("FURNITURE"))
    val custRnd = spark.range(1, nCust + 1).toDF("c_custkey").select(
      $"c_custkey",
      concat(lit("Customer#"), $"c_custkey")                   as "c_name",
      (rand(seed + 13) * 25).cast(IntegerType)                 as "c_nationkey",
      round(rand(seed + 14) * 10000 - 1000, 2)                 as "c_acctbal",
      concat(lit("phone-"), $"c_custkey")                      as "c_phone",
      concat(lit("addr-"), $"c_custkey")                       as "c_address",
      concat(lit("comment-"), $"c_custkey")                    as "c_comment",
      element_at(segs, (rand(seed + 15) * 5 + 1).cast("int"))  as "c_mktsegment")

    val nation = spark.range(0, 25).toDF("n_nationkey").select(
      $"n_nationkey".cast(IntegerType) as "n_nationkey",
      concat(lit("NATION-"), $"n_nationkey") as "n_name")

    // ---- planted witnesses ------------------------------------------------
    val q3Order = Seq((Q3OrderKey, Q3CustKey, "1995-02-20", "1-URGENT", "1-SHIP-HIGH"))
      .toDF("o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority", "o_shippriority")
    // Q10 customer orders: two in 1997-Q4, one outside
    val q10Orders = Seq(
      (9900001L, Q10CustKey, "1997-10-15", "2-HIGH", "2-SHIP-LOW"),
      (9900002L, Q10CustKey, "1997-11-20", "5-LOW", "1-SHIP-HIGH"),
      (9900003L, Q10CustKey, "1996-05-05", "3-MEDIUM", "2-SHIP-LOW"))
      .toDF("o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority", "o_shippriority")

    // Q3: every lineitem of the order misses the (typo'd) commitdate filter
    // > 1995-03-25 but passes the intended > 1995-03-15
    val q3Li = Seq(
      (Q3OrderKey, 10.0, 1000.0, 0.05, 0.02, "N", "1995-04-01", "1995-03-20", "1995-04-05"),
      (Q3OrderKey, 20.0, 2000.0, 0.06, 0.03, "N", "1995-04-02", "1995-03-24", "1995-04-06"))
      .toDF(lineitemFields: _*)
    // Q10: returnflag always 'R' (the query erroneously filters 'A')
    val q10Li = Seq(
      (9900001L, 5.0, 5000.0, 0.04, 0.01, "R", "1997-10-20", "1997-10-18", "1997-10-25"),
      (9900002L, 7.0, 7000.0, 0.05, 0.02, "R", "1997-11-25", "1997-11-22", "1997-11-30"),
      (9900003L, 9.0, 9000.0, 0.06, 0.03, "R", "1996-05-10", "1996-05-08", "1996-05-15"))
      .toDF(lineitemFields: _*)

    val q3Cust = Seq((Q3CustKey, s"Customer#$Q3CustKey", 3, 100.0,
      s"phone-$Q3CustKey", s"addr-$Q3CustKey", s"comment-$Q3CustKey", "BUILDING"))
      .toDF("c_custkey", "c_name", "c_nationkey", "c_acctbal", "c_phone",
        "c_address", "c_comment", "c_mktsegment")
    val q10Cust = Seq((Q10CustKey, s"Customer#$Q10CustKey", 7, 2000.0,
      s"phone-$Q10CustKey", s"addr-$Q10CustKey", s"comment-$Q10CustKey", "MACHINERY"))
      .toDF("c_custkey", "c_name", "c_nationkey", "c_acctbal", "c_phone",
        "c_address", "c_comment", "c_mktsegment")

    val orders   = ordersRnd.unionByName(q3Order).unionByName(q10Orders).cache()
    val lineitem = liRnd.unionByName(q3Li).unionByName(q10Li).cache()
    val customer = custRnd.filter($"c_custkey" =!= Q10CustKey)
      .unionByName(q3Cust).unionByName(q10Cust).cache()

    // ---- nest lineitems into orders --------------------------------------
    val liStruct = struct(lineitemFields.filterNot(_ == "l_orderkey").map(col): _*)
    val nestedOrders = orders.join(
        lineitem.groupBy("l_orderkey").agg(collect_list(liStruct).as("o_lineitems")),
        orders("o_orderkey") === lineitem("l_orderkey"), "left_outer")
      .drop("l_orderkey")
      .withColumn("o_lineitems",
        coalesce(col("o_lineitems"), array().cast("array<struct<" +
          "l_quantity:double,l_extendedprice:double,l_discount:double,l_tax:double," +
          "l_returnflag:string,l_shipdate:string,l_commitdate:string,l_receiptdate:string>>")))
      .cache()

    // customers with their orders nested (possibly empty) — the paper's
    // Q13 rerun where the join error becomes an inner-flatten error
    val ordStruct = struct(col("o_orderkey"), col("o_orderdate"))
    val customerNested = customer.join(
        orders.groupBy("o_custkey").agg(collect_list(ordStruct).as("c_orders")),
        customer("c_custkey") === orders("o_custkey"), "left_outer")
      .drop("o_custkey")
      .withColumn("c_orders", coalesce(col("c_orders"),
        array().cast("array<struct<o_orderkey:bigint,o_orderdate:string>>")))
      .cache()

    NestedTpch(lineitem, orders, customer, nation, nestedOrders, customerNested)
  }
}
