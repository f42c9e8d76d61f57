package repro.core

import org.apache.spark.sql.types.StructType
import org.scalatest.funsuite.AnyFunSuite
import repro.nrab._

/** Unit tests for column-source provenance and M_sbt (paper §5.1). */
class SourceSpec extends AnyFunSuite {

  private val ts = Map("w" -> StructType.fromDDL(
    "c1 INT, c2 INT, bag ARRAY<STRUCT<f: INT, g: INT>>, pair STRUCT<p: INT, q: INT>"))

  test("table access maps columns to themselves") {
    val s = Source.colSources(TableAccess(0, "w"), ts)
    assert(s("c1") == SrcPath("w", List("c1")))
    assert(s("bag") == SrcPath("w", List("bag")))
  }

  test("projection rename preserves the source") {
    val q = Projection(1, Seq(ProjCol("x", Attr("c1"))), TableAccess(0, "w"))
    assert(Source.colSources(q, ts)("x") == SrcPath("w", List("c1")))
  }

  test("derived projection column becomes SrcDerived with its inputs") {
    val q = Projection(1, Seq(ProjCol("d", Arith("+", Attr("c1"), Attr("c2")))),
      TableAccess(0, "w"))
    val SrcDerived(1, "d", inputs) = Source.colSources(q, ts)("d"): @unchecked
    assert(inputs == Set(SrcPath("w", List("c1")), SrcPath("w", List("c2"))))
  }

  test("relation flatten extends the source path by the element field") {
    val q = FlattenRel(1, "bag", outer = false, TableAccess(0, "w"))
    val s = Source.colSources(q, ts)
    assert(s("f") == SrcPath("w", List("bag", "f")))
    assert(!s.contains("bag")) // relation flatten consumes the attribute
  }

  test("tuple flatten keeps the attribute and promotes fields") {
    val q = FlattenTup(1, "pair", TableAccess(0, "w"))
    val s = Source.colSources(q, ts)
    assert(s("p") == SrcPath("w", List("pair", "p")))
    assert(s.contains("pair"))
  }

  test("aggregation outputs are SrcAgg; keys keep their sources") {
    val q = Agg(1, Seq("k" -> "c1"), Seq(AggSpec(AggFunc.Sum, "c2", "total")), TableAccess(0, "w"))
    val s = Source.colSources(q, ts)
    assert(s("k") == SrcPath("w", List("c1")))
    assert(s("total") == SrcAgg(1, "total"))
  }

  test("relation nesting produces SrcNested with per-field sources") {
    val q = NestRel(1, Seq("c2"), "packed", TableAccess(0, "w"))
    val SrcNested(1, fields) = Source.colSources(q, ts)("packed"): @unchecked
    assert(fields == Map("c2" -> SrcPath("w", List("c2"))))
  }

  test("tuple nesting respects output field aliases") {
    val q = NestTup(1, Seq("out1" -> "c1"), "packed", TableAccess(0, "w"))
    val SrcNested(1, fields) = Source.colSources(q, ts)("packed"): @unchecked
    assert(fields == Map("out1" -> SrcPath("w", List("c1"))))
  }

  test("flattening an attribute with no nested type at its path is rejected by name") {
    val e = intercept[IllegalArgumentException] {
      Source.colSources(FlattenRel(1, "c1", outer = false, TableAccess(0, "w")), ts)
    }
    assert(e.getMessage.contains("no nested type at w.c1"))
  }

  test("a flatten with aliases over an aggregate output is rejected by name") {
    val q = FlattenTup(2, "total", Agg(1, Seq("k" -> "c1"),
      Seq(AggSpec(AggFunc.Sum, "c2", "total")), TableAccess(0, "w")), aliases = Some(Seq("t" -> "t")))
    val e = intercept[IllegalArgumentException](Source.colSources(q, ts))
    assert(e.getMessage.contains("no nested type at SrcAgg(1,total)"))
  }

  test("a join whose inputs share a column name is rejected like Eval's join") {
    val q = Join(1, JoinKind.Inner, Seq("c1" -> "c1"), TableAccess(0, "w"), TableAccess(2, "w"))
    val e = intercept[IllegalArgumentException](Source.colSources(q, ts))
    assert(e.getMessage.contains("join inputs must have disjoint columns"))
  }

  test("sources are keyed in output-column order; nested fields in field order") {
    val q = NestTup(3, Seq("z" -> "f", "a" -> "g"), "packed",
      Projection(2, ProjCol.keep("c2", "g", "c1", "pair", "f"),
        FlattenRel(1, "bag", outer = false, TableAccess(0, "w"))))
    val s = Source.colSources(q, ts)
    assert(s.keys.toSeq == Seq("c2", "c1", "pair", "packed"))
    assert(Source.fieldsOf(s("packed"), ts) == Seq("z", "a"))
    assert(Source.fieldsOf(s("pair"), ts) == Seq("p", "q"))
    assert(Source.colSources(FlattenRel(1, "bag", outer = false, TableAccess(0, "w")), ts)
      .keys.toSeq == Seq("c1", "c2", "pair", "f", "g"))
  }

  test("join merges both sides' sources") {
    val ts2 = ts + ("v" -> StructType.fromDDL("d1 INT"))
    val q = Join(1, JoinKind.Inner, Seq("c1" -> "d1"),
      TableAccess(0, "w"), TableAccess(2, "v"))
    val s = Source.colSources(q, ts2)
    assert(s("c1") == SrcPath("w", List("c1")) && s("d1") == SrcPath("v", List("d1")))
  }

  test("one id naming two different operators is rejected by name; a self-union is not") {
    val ts2 = ts + ("v" -> StructType.fromDDL("d1 INT"))
    val q = Join(1, JoinKind.Inner, Seq("c1" -> "d1"),
      Selection(2, Pred.gt("c1", 1), TableAccess(0, "w")),
      Projection(2, ProjCol.keep("d1"), TableAccess(3, "v")))
    val e = intercept[IllegalArgumentException](Source.colSources(q, ts2))
    assert(e.getMessage.contains("operator id 2") && e.getMessage.contains("σ2") && e.getMessage.contains("π2"))
    val sel = Selection(2, Pred.gt("c1", 1), TableAccess(0, "w"))
    assert(Source.colSources(UnionOp(5, sel, sel.copy()), ts).keys.toSeq == Seq("c1", "c2", "bag", "pair"))
  }

  test("opRefs resolves selection and flatten references (M_sbt, Ex. 12)") {
    val q = Selection(2, Pred.gt("f", 1),
      FlattenRel(1, "bag", outer = false, TableAccess(0, "w")))
    val refs = Source.opRefs(q, ts).toSet
    assert(refs.contains(2 -> SrcPath("w", List("bag", "f"))))
    assert(refs.contains(1 -> SrcPath("w", List("bag"))))
  }

  test("opRefs covers aggregation keys and aggregated expressions") {
    val q = Agg(1, Seq("k" -> "c1"),
      Seq(AggSpec(AggFunc.Sum, Some(Arith("*", Attr("c2"), Lit(2))), "t")), TableAccess(0, "w"))
    val refs = Source.opRefs(q, ts).toSet
    assert(refs.contains(1 -> SrcPath("w", List("c1"))))
    assert(refs.contains(1 -> SrcPath("w", List("c2"))))
  }

  test("pathKey renders dotted paths") {
    assert(SrcPath("w", List("bag", "f")).pathKey.contains("w.bag.f"))
    assert(SrcAgg(1, "x").pathKey.isEmpty)
  }
}
