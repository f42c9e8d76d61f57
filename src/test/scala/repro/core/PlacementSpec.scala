package repro.core

import org.apache.spark.sql.types.StructType
import org.scalatest.funsuite.AnyFunSuite
import repro.nrab._
import repro.whynot._

/** Unit tests for schema backtracing / constraint placement (§5.1) —
  * data-independent.
  */
class PlacementSpec extends AnyFunSuite {

  private val ts = Map(
    "r" -> StructType.fromDDL(
      "k INT, v STRING, addr ARRAY<STRUCT<city: STRING, year: INT>>, meta STRUCT<tag: STRING>"),
    "s" -> StructType.fromDDL("sk INT, sv STRING"))

  test("scalar constraint lands in the table NIP") {
    val q = Projection(1, ProjCol.keep("k", "v"), TableAccess(0, "r"))
    val p = Placement.backtrace(q, Nip.tup("k" -> NConst(7)), ts)
    assert(p.tableNips.keySet == Set("r"))
    assert(p.nipFor("r").matches(Seq("k" -> 7, "v" -> "x")))
    assert(!p.nipFor("r").matches(Seq("k" -> 8, "v" -> "x")))
  }

  test("constraint through a rename backtraces to the source column") {
    val q = Projection(1, Seq(ProjCol("kk", Attr("k"))), TableAccess(0, "r"))
    val p = Placement.backtrace(q, Nip.tup("kk" -> NConst(7)), ts)
    assert(p.nipFor("r").matches(Seq("k" -> 7)))
  }

  test("flattened attribute constraint creates a revalidation check (Ex. 11/12)") {
    val q = Selection(2, Pred.ge("year", 2019),
      FlattenRel(1, "addr", outer = false, TableAccess(0, "r")))
    val p = Placement.backtrace(q, Nip.tup("city" -> NConst("NY")), ts)
    assert(p.checks == Map(1 -> Seq(("city", NConst("NY")))))
    // and the table NIP demands a nested element with city NY
    val ok = Seq("addr" -> Seq(Seq("city" -> "NY", "year" -> 2018)))
    val ko = Seq("addr" -> Seq(Seq("city" -> "LA", "year" -> 2019)))
    assert(p.nipFor("r").matches(ok))
    assert(!p.nipFor("r").matches(ko))
  }

  test("struct field constraint builds a tuple pattern") {
    val q = FlattenTup(1, "meta", TableAccess(0, "r"), aliases = Some(Seq("tag" -> "tag")))
    val p = Placement.backtrace(q, Nip.tup("tag" -> NConst("hot")), ts)
    assert(p.nipFor("r").matches(Seq("meta" -> Seq("tag" -> "hot"))))
    assert(!p.nipFor("r").matches(Seq("meta" -> Seq("tag" -> "cold"))))
  }

  test("aggregate constraints are placed at the aggregation, not the source") {
    val q = Agg(1, Agg.keys("k"), Seq(AggSpec(AggFunc.Count, "v", "n")), TableAccess(0, "r"))
    val p = Placement.backtrace(q, Nip.tup("k" -> NConst(1), "n" -> NCmp(">=", 5L)), ts)
    assert(p.checks == Map(1 -> Seq(("n", NCmp(">=", 5L)))))
    assert(p.tableNips.keySet == Set("r")) // only the key constraint
  }

  test("derived projection constraints are placed at the projection") {
    val q = Projection(1, Seq(ProjCol("d", Arith("*", Attr("k"), Lit(2)))), TableAccess(0, "r"))
    val p = Placement.backtrace(q, Nip.tup("d" -> NCmp(">", 0)), ts)
    assert(p.checks == Map(1 -> Seq(("d", NCmp(">", 0)))))
    assert(p.tableNips.isEmpty)
  }

  test("nested-output bag patterns push element constraints to their sources") {
    val q = NestRel(1, Seq("v"), "vs",
      Projection(2, ProjCol.keep("k", "v"), TableAccess(0, "r")))
    val p = Placement.backtrace(q,
      Nip.tup("k" -> NAny, "vs" -> Nip.bagStar(Nip.tup("v" -> NConst("hit")))), ts)
    assert(p.nipFor("r").matches(Seq("v" -> "hit")))
    assert(!p.nipFor("r").matches(Seq("v" -> "miss")))
  }

  test("join: constraints are split by side") {
    val q = Join(1, JoinKind.Inner, Seq("k" -> "sk"),
      Projection(2, ProjCol.keep("k", "v"), TableAccess(0, "r")),
      TableAccess(3, "s"))
    val p = Placement.backtrace(q, Nip.tup("v" -> NConst("a"), "sv" -> NConst("b")), ts)
    assert(p.tableNips.keySet == Set("r", "s"))
    assert(p.nipFor("r").matches(Seq("v" -> "a")))
    assert(p.nipFor("s").matches(Seq("sv" -> "b")))
  }

  test("a subtree is constrained by its tables' NIPs or its operators' checks") {
    val agg = Agg(2, Agg.keys("k"), Seq(AggSpec(AggFunc.Count, "v", "n")), TableAccess(0, "r"))
    val q = Join(1, JoinKind.Inner, Seq("k" -> "sk"), agg, TableAccess(3, "s"))
    val onAgg = Placement.backtrace(q, Nip.tup("n" -> NCmp(">", 1L), "sk" -> NAny), ts)
    assert(onAgg.constrains(q) && onAgg.constrains(agg))
    assert(!onAgg.constrains(TableAccess(0, "r")) && !onAgg.constrains(TableAccess(3, "s")))
    val onS = Placement.backtrace(q, Nip.tup("sv" -> NConst("b")), ts)
    assert(onS.constrains(TableAccess(3, "s")) && !onS.constrains(agg))
  }

  test("unknown why-not attribute is rejected") {
    val q = TableAccess(0, "r")
    intercept[IllegalArgumentException] {
      Placement.backtrace(q, Nip.tup("nope" -> NConst(1)), ts)
    }
  }

  test("constraints that cannot be backtraced are rejected, naming the attribute") {
    val nested = NestRel(1, Seq("v"), "vs", Projection(2, ProjCol.keep("k", "v"), TableAccess(0, "r")))
    val agg = Agg(1, Agg.keys("k"), Seq(AggSpec(AggFunc.Count, "v", "n")), TableAccess(0, "r"))
    val cases = Seq(
      (nested, Nip.tup("vs" -> NConst(1)), "primitive constraint on a nested value"),
      (agg, Nip.tup("n" -> Nip.tup("x" -> NConst(1))), "tuple pattern on an aggregate"),
      (nested, Nip.tup("vs" -> Nip.bagStar(NConst("hit"))), "bag element pattern"))
    cases.foreach { case (q, nip, why) =>
      val e = intercept[IllegalArgumentException](Placement.backtrace(q, nip, ts))
      assert(e.getMessage.contains(why), e.getMessage)
      assert(e.getMessage.contains(s"on ${nip.fields.head._1}:"), e.getMessage)
    }
  }

  test("NAny constraints place nothing") {
    val q = TableAccess(0, "r")
    val p = Placement.backtrace(q, Nip.tup("k" -> NAny, "v" -> NAny), ts)
    assert(p.tableNips.isEmpty && p.checks.isEmpty)
    assert(!p.constrains(q))
  }
}
