package repro.core

import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.data.Person
import repro.nrab._
import repro.whynot._

/** Golden tests for the tracing annotations on the running example —
  * paper Figures 4 (table access), 5 (flatten) and 6 (selection).
  */
class TraceSpec extends SparkSpec {

  private def query: Op =
    NestRel(4, Seq("name"), "nList",
      Projection(3, ProjCol.keep("name", "city"),
        Selection(2, Pred.ge("year", 2019),
          FlattenRel(1, "address2", outer = false,
            TableAccess(0, "person")))))

  private def tables = Map("person" -> Person.table(spark))
  private def ts = tables.map { case (n, df) => n -> df.schema }
  private def nip = Nip.tup("city" -> NConst("NY"), "nList" -> Nip.bagStar(NAny))

  /** SA ``saIndex``'s trace up to π3, the nesting's input: the figures
    * show the operators below the nesting, and only there is `name` an
    * output column.
    */
  private def tracedFor(saIndex: Int): (Traced, SchemaAlternative) = {
    val sas = SchemaAlts.enumerate(query,
      Seq(AltGroup(Seq("person.address2", "person.address1"))), ts)
    val sa = sas(saIndex)
    val placement = Placement.backtrace(sa.query, nip, ts)
    (Trace.trace(sa.query.children.head, tables, placement, ts), sa)
  }

  test("Figure 4: table-access consistency — Peter 0, Sue 1 under S1") {
    val (t, _) = tracedFor(0)
    // before the flatten: inspect the source-level compat flags
    val placement = Placement.backtrace(query, nip, ts)
    val src = Trace.trace(TableAccess(0, "person"), tables, placement, ts)
    val rows = src.df.select(col(src.cols("name")), col(src.consistent)).collect()
      .map(r => r.getString(0) -> r.getBoolean(1)).toMap
    assert(rows == Map("Peter" -> false, "Sue" -> true))
    assert(t.tracked.map(_.opId) == Seq(1, 2))
  }

  test("Figure 4 (S2): Peter becomes compatible via address1") {
    val (t2, sa) = tracedFor(1)
    assert(sa.sr == Set(1))
    val placement = Placement.backtrace(sa.query, nip, ts)
    val src = Trace.trace(TableAccess(0, "person"), tables, placement, ts)
    val rows = src.df.select(col(src.cols("name")), col(src.consistent)).collect()
      .map(r => r.getString(0) -> r.getBoolean(1)).toMap
    assert(rows == Map("Peter" -> true, "Sue" -> true))
  }

  test("Figure 5: flatten revalidation keeps only the NY rows consistent") {
    val (t, _) = tracedFor(0)
    val rows = t.df
      .select(col(t.cols("name")), col(t.cols("city")), col(t.consistent))
      .collect().map(r => (r.getString(0), r.getString(1)) -> r.getBoolean(2)).toMap
    // S1 flattens address2: Sue's NY row is the only consistent one
    assert(rows(("Sue", "NY")))
    assert(!rows(("Sue", "LA")))
    assert(!rows(("Peter", "LA")))
    assert(!rows(("Peter", "SF")))
  }

  test("Figure 5: inner flatten retains all rows (no empty bags here)") {
    val (t, _) = tracedFor(0)
    val retF = t.tracked.find(_.opId == 1).get.retCol
    assert(t.df.filter(!col(retF)).count() == 0)
    assert(t.df.count() == 4)
  }

  test("Figure 6: selection retained flags follow year >= 2019") {
    val (t, _) = tracedFor(0)
    val retS = t.tracked.find(_.opId == 2).get.retCol
    val rows = t.df
      .select(col(t.cols("name")), col(t.cols("city")), col(retS))
      .collect().map(r => (r.getString(0), r.getString(1)) -> r.getBoolean(2)).toMap
    assert(rows == Map(
      ("Peter", "LA") -> false, ("Peter", "SF") -> false,
      ("Sue", "LA") -> true, ("Sue", "NY") -> false))
  }

  test("Figure 6 (S2): under address1 Peter's LA 2019 row is retained") {
    val (t, _) = tracedFor(1)
    val retS = t.tracked.find(_.opId == 2).get.retCol
    val rows = t.df
      .select(col(t.cols("name")), col(t.cols("city")), col(retS))
      .collect().map(r => (r.getString(0), r.getString(1)) -> r.getBoolean(2)).toMap
    assert(rows(("Peter", "LA")))
    assert(!rows(("Peter", "NY"))) // 2010
    assert(!rows(("Sue", "NY")))   // 2018
  }

  test("witness fail-sets: S1 yields {σ2}, S2 yields {σ2} on top of SR={F1}") {
    val (t1, sa1) = tracedFor(0)
    assert(Explain.witnessFailSets(t1).map(_._1) == Seq(Set(2)))
    val (t2, sa2) = tracedFor(1)
    val sets = Explain.witnessFailSets(t2).map { case (s, _) => sa2.sr ++ s }.toSet
    assert(sets == Set(Set(1, 2)))
  }

  test("alive column tracks the original pipeline") {
    val (t, _) = tracedFor(0)
    // only Sue (LA, 2019) survives the original query
    val alive = t.df.filter(col(t.alive))
      .select(col(t.cols("name")), col(t.cols("city"))).collect()
      .map(r => (r.getString(0), r.getString(1)))
    assert(alive.toSeq == Seq(("Sue", "LA")))
  }

  test("compat flags are not revalidated (WN++ keeps Sue's both rows)") {
    val t = Trace.lineage(query, tables, Placement.backtrace(query, nip, ts), ts)("person")
    assert(t.df.filter(col(t.consistent)).count() == 2) // both of Sue's address rows
  }
}
