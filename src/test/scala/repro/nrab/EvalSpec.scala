package repro.nrab

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec, SynthData}
import repro.core.Source
import repro.data.Person

/** Operator-by-operator correctness of the NRAB evaluator. Flat-relational
  * operators are validated against DuckDB via [[repro.Oracle]]; nesting /
  * flattening against hand-computed expectations on the paper's person
  * table (Figure 1).
  */
class EvalSpec extends SparkSpec {

  private lazy val li: DataFrame = SynthData.lineitem(spark, sf = 0.001).cache()
  private lazy val ord: DataFrame = SynthData.orders(spark, sf = 0.001).cache()
  private lazy val cust: DataFrame = SynthData.customer(spark, sf = 0.001).cache()
  private def cat = Map("lineitem" -> li, "orders" -> ord, "customer" -> cust)

  private def liStr = li.selectExpr("cast(l_orderkey as string) l_orderkey",
    "cast(l_quantity as string) l_quantity", "cast(l_extendedprice as string) l_extendedprice",
    "l_returnflag", "cast(l_discount as string) l_discount")
  private def ordStr = ord.selectExpr("cast(o_orderkey as string) o_orderkey",
    "cast(o_custkey as string) o_custkey", "o_orderstatus")

  test("table access returns the table") {
    assert(Eval(TableAccess(0, "lineitem"), cat).count() == li.count())
  }

  test("selection matches DuckDB") {
    val q = Selection(1, Pred.eq("l_returnflag", "R"),
      Projection(2, ProjCol.keep("l_orderkey", "l_returnflag"), TableAccess(0, "lineitem")))
    Oracle.assertEquivalent(
      Eval(q, cat),
      "SELECT l_orderkey, l_returnflag FROM lineitem WHERE l_returnflag = 'R'",
      "lineitem" -> liStr)
  }

  test("projection with derived column matches DuckDB") {
    val q = Projection(1, Seq(
      ProjCol("l_orderkey", Attr("l_orderkey")),
      ProjCol("disc", Arith("*", Attr("l_extendedprice"), Arith("-", Lit(1.0), Attr("l_discount"))))),
      TableAccess(0, "lineitem"))
    Oracle.assertEquivalent(
      Eval(q, cat).selectExpr("l_orderkey", "round(disc, 4) as disc"),
      "SELECT l_orderkey, round(cast(l_extendedprice as double) * (1 - cast(l_discount as double)), 4) AS disc FROM lineitem",
      "lineitem" -> liStr)
  }

  test("renaming renames and drops") {
    val q = Renaming(1, Seq("ok" -> "l_orderkey"), TableAccess(0, "lineitem"))
    assert(Eval(q, cat).columns.toSeq == Seq("ok"))
  }

  test("inner join matches DuckDB") {
    val q = Projection(3, ProjCol.keep("o_orderkey", "l_quantity"),
      Join(2, JoinKind.Inner, Seq("o_orderkey" -> "l_orderkey"),
        TableAccess(0, "orders"),
        Projection(4, ProjCol.keep("l_orderkey", "l_quantity"), TableAccess(1, "lineitem"))))
    Oracle.assertEquivalent(
      Eval(q, cat).selectExpr("o_orderkey", "round(l_quantity, 2) as l_quantity"),
      "SELECT o_orderkey, round(cast(l_quantity as double), 2) AS l_quantity FROM orders JOIN lineitem ON o_orderkey = l_orderkey",
      "orders" -> ordStr, "lineitem" -> liStr)
  }

  test("left outer join matches DuckDB") {
    val q = Projection(3, ProjCol.keep("o_orderkey", "l_quantity"),
      Join(2, JoinKind.Left, Seq("o_orderkey" -> "l_orderkey"),
        TableAccess(0, "orders"),
        Projection(4, ProjCol.keep("l_orderkey", "l_quantity"),
          Selection(5, Pred.gt("l_quantity", 45.0), TableAccess(1, "lineitem")))))
    Oracle.assertEquivalent(
      Eval(q, cat).selectExpr("o_orderkey", "round(l_quantity, 2) as l_quantity"),
      """SELECT o_orderkey, round(cast(l_quantity as double), 2) AS l_quantity FROM orders LEFT JOIN
         (SELECT l_orderkey, l_quantity FROM lineitem WHERE cast(l_quantity as double) > 45.0) l
         ON o_orderkey = l_orderkey""",
      "orders" -> ordStr, "lineitem" -> liStr)
  }

  test("grouped aggregation matches DuckDB") {
    val q = Agg(1, Agg.keys("l_returnflag"),
      Seq(AggSpec(AggFunc.Count, "l_orderkey", "n"), AggSpec(AggFunc.Sum, "l_quantity", "qty")),
      TableAccess(0, "lineitem"))
    Oracle.assertEquivalent(
      Eval(q, cat).selectExpr("l_returnflag", "cast(n as long) n", "round(qty,2) qty"),
      """SELECT l_returnflag, count(l_orderkey) AS n,
                round(sum(cast(l_quantity as double)), 2) AS qty
         FROM lineitem GROUP BY l_returnflag""",
      "lineitem" -> liStr)
  }

  test("global aggregation matches DuckDB") {
    val q = Agg(1, Seq.empty, Seq(AggSpec(AggFunc.Sum, "l_extendedprice", "total")),
      TableAccess(0, "lineitem"))
    Oracle.assertEquivalent(
      Eval(q, cat).selectExpr("round(total, 2) total"),
      "SELECT round(sum(cast(l_extendedprice as double)), 2) AS total FROM lineitem",
      "lineitem" -> liStr)
  }

  test("aggregation over an expression matches DuckDB") {
    val q = Agg(1, Seq.empty, Seq(AggSpec(AggFunc.Sum,
      Some(Arith("*", Attr("l_extendedprice"), Attr("l_discount"))), "rev")),
      TableAccess(0, "lineitem"))
    Oracle.assertEquivalent(
      Eval(q, cat).selectExpr("round(rev, 2) rev"),
      "SELECT round(sum(cast(l_extendedprice as double) * cast(l_discount as double)), 2) AS rev FROM lineitem",
      "lineitem" -> liStr)
  }

  test("count(*) counts rows") {
    val q = Agg(1, Seq.empty, Seq(AggSpec.countStar("n")), TableAccess(0, "lineitem"))
    assert(Eval(q, cat).head().getLong(0) == li.count())
  }

  test("union matches DuckDB (bag semantics)") {
    val a = Projection(2, ProjCol.keep("l_orderkey"),
      Selection(1, Pred.eq("l_returnflag", "R"), TableAccess(0, "lineitem")))
    val b = Projection(4, ProjCol.keep("l_orderkey"),
      Selection(3, Pred.eq("l_returnflag", "R"), TableAccess(0, "lineitem")))
    val q = UnionOp(5, a, b)
    Oracle.assertEquivalent(
      Eval(q, cat),
      """SELECT l_orderkey FROM lineitem WHERE l_returnflag='R'
         UNION ALL SELECT l_orderkey FROM lineitem WHERE l_returnflag='R'""",
      "lineitem" -> liStr)
  }

  test("dedup matches DuckDB DISTINCT") {
    val q = Dedup(1, Projection(2, ProjCol.keep("l_returnflag"), TableAccess(0, "lineitem")))
    Oracle.assertEquivalent(
      Eval(q, cat),
      "SELECT DISTINCT l_returnflag FROM lineitem",
      "lineitem" -> liStr)
  }

  // --- nested operators on the running-example person table ---

  private def person = Map("person" -> Person.table(spark))

  test("relation inner flatten multiplies rows by nested cardinality") {
    val q = FlattenRel(1, "address2", outer = false, TableAccess(0, "person"))
    val out = Eval(q, person)
    assert(out.count() == 4) // Peter 2 + Sue 2
    assert(out.columns.toSeq == Seq("name", "address1", "city", "year"))
  }

  test("relation outer flatten pads empty nested relations") {
    import spark.implicits._
    val df = Seq(("a", Seq(Person.Addr("NY", 2020))), ("b", Seq.empty[Person.Addr]))
      .toDF("name", "addr")
    val inner = Eval(FlattenRel(1, "addr", outer = false, TableAccess(0, "padtest")),
      Map("padtest" -> df))
    val outer = Eval(FlattenRel(1, "addr", outer = true, TableAccess(0, "padtest")),
      Map("padtest" -> df))
    assert(inner.count() == 1)
    assert(outer.count() == 2)
    assert(outer.filter("name = 'b'").head().isNullAt(1))
  }

  test("flatten with aliases renames promoted fields") {
    val q = FlattenRel(1, "address2", outer = false, TableAccess(0, "person"),
      aliases = Some(Seq("town" -> "city")))
    val out = Eval(q, person)
    assert(out.columns.toSeq == Seq("name", "address1", "town"))
  }

  test("tuple flatten promotes struct fields") {
    val q = FlattenTup(2, "pair",
      NestTup(1, Seq("c" -> "city", "y" -> "year"), "pair",
        FlattenRel(0, "address2", outer = false,
          Projection(3, ProjCol.keep("name", "address2"), TableAccess(4, "person")))))
    val out = Eval(q, person)
    // tuple flatten keeps the flattened struct (paper Table 1: R ∘ τ)
    assert(out.columns.toSeq == Seq("name", "pair", "c", "y"))
    assert(out.count() == 4)
  }

  test("relation nesting groups and collects (round-trips flatten)") {
    val q = NestRel(2, Seq("city", "year"), "addrs",
      FlattenRel(1, "address2", outer = false,
        Projection(3, ProjCol.keep("name", "address2"), TableAccess(0, "person"))))
    val out = Eval(q, person).collect()
    assert(out.length == 2)
    val sue = out.find(_.getString(0) == "Sue").get
    assert(sue.getSeq[Any](1).size == 2)
  }

  test("tuple nesting packs attributes into a struct") {
    val q = NestTup(1, Seq("city" -> "city", "year" -> "year"), "addr",
      FlattenRel(0, "address2", outer = false,
        Projection(2, ProjCol.keep("name", "address2"), TableAccess(3, "person"))))
    val out = Eval(q, person)
    assert(out.columns.toSeq == Seq("name", "addr"))
    assert(out.schema("addr").dataType.typeName == "struct")
  }

  test("running-example pipeline reproduces Figure 1b") {
    val q = NestRel(4, Seq("name"), "nList",
      Projection(3, ProjCol.keep("name", "city"),
        Selection(2, Pred.ge("year", 2019),
          FlattenRel(1, "address2", outer = false, TableAccess(0, "person")))))
    val out = Eval(q, person).collect()
    assert(out.length == 1)
    assert(out.head.getString(0) == "LA")
    assert(out.head.getSeq[org.apache.spark.sql.Row](1).map(_.getString(0)).toSet == Set("Sue"))
  }

  test("schemaOf matches actual output columns on a complex pipeline") {
    val q = NestRel(4, Seq("name"), "nList",
      Projection(3, ProjCol.keep("name", "city"),
        Selection(2, Pred.ge("year", 2019),
          FlattenRel(1, "address2", outer = false, TableAccess(0, "person")))))
    val ts = person.map { case (n, df) => n -> df.schema }
    assert(Source.colSources(q, ts).keys.toSeq == Eval(q, person).columns.toSeq)
  }

  test("flattening a column that is not nested is rejected by name") {
    val e = intercept[IllegalArgumentException] {
      Eval(FlattenTup(1, "name", TableAccess(0, "person")), person)
    }
    assert(e.getMessage.contains("no nested type at name"))
  }

  test("join rejects overlapping column names") {
    val q = Join(1, JoinKind.Inner, Seq("l_orderkey" -> "l_orderkey"),
      TableAccess(0, "lineitem"), TableAccess(2, "lineitem"))
    intercept[IllegalArgumentException] { Eval(q, cat) }
  }
}
