package repro.core

import org.apache.spark.sql.types.StructType
import org.scalatest.funsuite.AnyFunSuite
import repro.nrab._

/** Unit tests for schema-alternative enumeration, substitution and
  * pruning (paper §5.2 / Figure 3) — data-independent, no Spark needed.
  */
class SchemaAltsSpec extends AnyFunSuite {

  private val ts = Map("t" -> StructType.fromDDL(
    "a INT, b INT, arr1 ARRAY<STRUCT<x: INT, y: INT>>, arr2 ARRAY<STRUCT<x: INT, y: INT>>"))

  // final projection fixes the output schema (the un-flattened sibling
  // array would otherwise leak into it and prune every swap)
  private def q: Op =
    Projection(3, ProjCol.keep("a", "y"),
      Selection(2, Pred.gt("y", 1),
        FlattenRel(1, "arr1", outer = false, TableAccess(0, "t"))))

  test("no groups -> exactly the original alternative") {
    val sas = SchemaAlts.enumerate(q, Seq.empty, ts)
    assert(sas.size == 1 && sas.head.isOriginal && sas.head.sr.isEmpty)
  }

  test("nested-attribute group yields the original plus the swap (Fig. 3)") {
    val sas = SchemaAlts.enumerate(q, Seq(AltGroup(Seq("t.arr1", "t.arr2"))), ts)
    assert(sas.size == 2)
    assert(sas(1).sr == Set(1))
    val FlattenRel(_, attr2, _, _, _) = sas(1).query.find(1).get: @unchecked
    assert(attr2 == "arr2")
    // sibling-schema leak without a projection: the swap is pruned
    val bare = Selection(2, Pred.gt("y", 1),
      FlattenRel(1, "arr1", outer = false, TableAccess(0, "t")))
    assert(SchemaAlts.enumerate(bare, Seq(AltGroup(Seq("t.arr1", "t.arr2"))), ts).size == 1)
  }

  test("downstream references follow the flatten swap without entering the SR") {
    val sas = SchemaAlts.enumerate(q, Seq(AltGroup(Seq("t.arr1", "t.arr2"))), ts)
    val Projection(_, _, Selection(_, pred, _)) = sas(1).query: @unchecked
    assert(pred == Pred.gt("y", 1)) // name stable, value now from arr2.y
    assert(!sas(1).sr.contains(2))
  }

  test("scalar sibling swap rewrites the referencing operator") {
    val q2 = Selection(1, Pred.gt("a", 0), TableAccess(0, "t"))
    val sas = SchemaAlts.enumerate(q2, Seq(AltGroup(Seq("t.a", "t.b"))), ts)
    assert(sas.size == 2)
    assert(sas(1).sr == Set(1))
    val Selection(_, p2, _) = sas(1).query: @unchecked
    assert(p2 == Pred.gt("b", 0))
  }

  test("two referenced members of one group enumerate injective assignments") {
    // both a and b referenced, group {a, b}: identity and the full swap
    val q2 = Selection(1, Pred.gt("a", 0) && Pred.lt("b", 9), TableAccess(0, "t"))
    val sas = SchemaAlts.enumerate(q2, Seq(AltGroup(Seq("t.a", "t.b"))), ts)
    assert(sas.size == 2)
    assert(sas(1).sr == Set(1))
  }

  test("three-member group with one reference yields three alternatives") {
    val ts3 = Map("t" -> StructType.fromDDL("a INT, b INT, c INT"))
    val q2 = Selection(1, Pred.gt("a", 0), TableAccess(0, "t"))
    val sas = SchemaAlts.enumerate(q2, Seq(AltGroup(Seq("t.a", "t.b", "t.c"))), ts3)
    assert(sas.size == 3)
    assert(sas.map(_.sr).count(_.isEmpty) == 1)
  }

  test("alternatives altering the output schema are pruned") {
    // projecting a vs b under distinct OUTPUT names would change the schema:
    // a projection that outputs the swapped attr under its own name is pruned
    val q2 = Projection(1, Seq(ProjCol("a", Attr("a"))), TableAccess(0, "t"))
    val sas = SchemaAlts.enumerate(q2, Seq(AltGroup(Seq("t.a", "t.b"))), ts)
    // ProjCol keeps output name "a", so the swap SURVIVES (schema stable)
    assert(sas.size == 2)
    val q3 = Renaming(1, Seq("a" -> "a"), TableAccess(0, "t"))
    val sas3 = SchemaAlts.enumerate(q3, Seq(AltGroup(Seq("t.a", "t.b"))), ts)
    // renaming keeps output name too — also 2; now check flatten with
    // differing promoted names gets pruned without aliases
    val tsv = Map("v" -> StructType.fromDDL(
      "n1 ARRAY<STRUCT<p: INT>>, n2 ARRAY<STRUCT<q: INT>>"))
    val q4 = FlattenRel(1, "n1", outer = false, TableAccess(0, "v"))
    val sas4 = SchemaAlts.enumerate(q4, Seq(AltGroup(Seq("v.n1", "v.n2"))), tsv)
    assert(sas4.size == 1) // swap would rename the promoted column p -> q
    assert(sas3.size == 2)
  }

  test("a pass-through projection keeping both swap sides stays unchanged") {
    val q2 = Selection(2, Pred.eq("a", 1),
      Projection(1, ProjCol.keep("a", "b"), TableAccess(0, "t")))
    val sas = SchemaAlts.enumerate(q2, Seq(AltGroup(Seq("t.a", "t.b"))), ts)
    val swap = sas.find(!_.isOriginal).get
    assert(swap.sr == Set(2)) // only the selection reparameterized
  }

  test("substitution is the identity under the empty assignment") {
    val (_, changed, _) = SchemaAlts.substitute(q, identity[SrcPath], Source.schemas(q, ts), ts)
    assert(changed.isEmpty)
  }

  test("original alternative always sorts first") {
    val sas = SchemaAlts.enumerate(q, Seq(AltGroup(Seq("t.arr1", "t.arr2"))), ts)
    assert(sas.head.index == 0 && sas.head.isOriginal)
  }
}
