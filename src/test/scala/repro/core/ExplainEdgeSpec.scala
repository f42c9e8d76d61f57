package repro.core

import repro.SparkSpec
import repro.baselines.Baselines
import repro.data.Person
import repro.nrab._
import repro.whynot._

/** Edge-case behaviour of the explanation pipeline. */
class ExplainEdgeSpec extends SparkSpec {

  private def query: Op =
    NestRel(4, Seq("name"), "nList",
      Projection(3, ProjCol.keep("name", "city"),
        Selection(2, Pred.ge("year", 2019),
          FlattenRel(1, "address2", outer = false, TableAccess(0, "person")))))

  private def q(nip: NTup, groups: Seq[AltGroup] = Seq.empty) =
    Question(query, Map("person" -> Person.table(spark)), nip, groups)

  test("an answer present in the result never yields the empty explanation") {
    // LA is in the result: the only SA1 witness has an empty failure set,
    // which Alg. 4 drops (SR = ∅ is never an explanation)
    val es = Explain.rpNoSA(q(Nip.tup("city" -> NConst("LA"), "nList" -> NAny)))
    assert(!es.exists(_.ops.isEmpty))
  }

  test("an unsatisfiable why-not question yields no explanations") {
    val es = Explain.rp(
      q(Nip.tup("city" -> NConst("Atlantis"), "nList" -> NAny),
        Seq(AltGroup(Seq("person.address2", "person.address1")))))
    assert(es.isEmpty)
  }

  test("unconstrained why-not tuples make every failing row a witness") {
    val es = Explain.rpNoSA(q(Nip.tup("city" -> NAny, "nList" -> NAny)))
    assert(es.map(_.ops) == Seq(Set(2))) // some row always fails year >= 2019
  }

  test("witness counts accumulate per explanation") {
    val es = Explain.rpNoSA(q(Nip.tup("city" -> NAny, "nList" -> NAny)))
    assert(es.head.witnesses == 3) // Peter LA/SF + Sue NY fail the selection
  }

  test("duplicate explanations across alternatives are deduplicated") {
    val es = Explain.rp(
      q(Nip.tup("city" -> NConst("NY"), "nList" -> NAny),
        Seq(AltGroup(Seq("person.address2", "person.address1")))))
    assert(es.map(_.ops).distinct.size == es.size)
  }

  test("tracing through a union is rejected explicitly") {
    val u = UnionOp(5, query, query)
    intercept[UnsupportedOperationException] {
      Explain.rpNoSA(q(Nip.tup("city" -> NConst("NY"), "nList" -> NAny))
        .copy(query = u))
    }
  }

  test("an outer flatten is never blamed for pruning") {
    val qo = Projection(3, ProjCol.keep("name", "city"),
      Selection(2, Pred.ge("year", 2019),
        FlattenRel(1, "address2", outer = true, TableAccess(0, "person"))))
    val es = Explain.rpNoSA(Question(qo, Map("person" -> Person.table(spark)),
      Nip.tup("city" -> NConst("NY"), "name" -> NAny)))
    assert(es.map(_.ops) == Seq(Set(2)))
  }

  // Sue's NY address of 2018 fails σ2; a NestTup packs who and when of
  // each flattened address into `info`, which passes the join with
  // `cities` on the city
  private def packed: Op =
    NestTup(3, Seq("who" -> "name", "when" -> "year"), "info",
      Selection(2, Pred.ge("year", 2019),
        FlattenRel(1, "address2", outer = false, TableAccess(0, "person"))))

  private def joined(left: Op): Op =
    Join(6, JoinKind.Inner, Seq("city" -> "c"), left, TableAccess(5, "cities"))

  private def withCities(query: Op, nip: NTup) = {
    import spark.implicits._
    Question(query, Map("person" -> Person.table(spark),
      "cities" -> Seq(("NY", "east"), ("LA", "west")).toDF("c", "coast")), nip,
      Seq(AltGroup(Seq("person.address2", "person.address1"))))
  }

  test("a nesting output passes a join into a projection and a renaming") {
    val projected = Projection(7, ProjCol.keep("city", "coast", "info"), joined(packed))
    val renamed = Renaming(7, Seq("town" -> "city", "coast" -> "coast", "data" -> "info"), joined(packed))
    Seq(withCities(projected, Nip.tup("city" -> NConst("NY"))),
        withCities(renamed, Nip.tup("town" -> NConst("NY")))).foreach { q =>
      assert(Eval(q.query, q.tables).count() == 1) // Sue's LA address of 2019
      // SA 1 (address2): Sue's NY row is consistent and fails σ2 only;
      // SA 2 (address1, SR {F^I1}): Peter's and Sue's NY rows fail σ2
      assert(Explain.rpNoSA(q).map(_.labels) == Seq(Set("σ2")))
      assert(Explain.rp(q).map(_.labels) == Seq(Set("σ2"), Set("F^I1", "σ2")))
      // Sue's compatible NY address dies at σ2; the join keeps both rows
      assert(Baselines.wnPlusPlus(q) == Seq(Set(2)))
    }
  }

  test("a flatten, a group-by key or a join key on a nesting output is rejected by name") {
    val cases = Seq(
      "F^T4" -> FlattenTup(4, "info", packed),
      "γ4" -> Agg(4, Seq("k" -> "info"), Seq(AggSpec(AggFunc.Count, None, "n")), packed),
      "⋈6" -> Join(6, JoinKind.Inner, Seq("info" -> "c"), packed, TableAccess(5, "cities")))
    cases.foreach { case (label, query) =>
      val e = intercept[UnsupportedTraceInput](Explain.rpNoSA(withCities(query, Nip.tup())))
      assert(e.opLabel == label && e.getMessage.contains("info is a nesting output"), label)
    }
  }

  test("an expression reading a nesting output is rejected by name") {
    val query = Selection(4, IsNotNull(Attr("info")), packed)
    assert(Eval(query, withCities(query, Nip.tup()).tables).count() == 1)
    val e = intercept[UnsupportedTraceInput](Explain.rpNoSA(withCities(query, Nip.tup())))
    assert(e.opLabel == "σ4" && e.getMessage.contains("info is a nesting output"))
  }

  test("an outer join is rejected by name, not traced as an inner join") {
    import spark.implicits._
    // b has no partner in r: the left join keeps it (cnt = 1), an inner
    // join would drop it
    val tables = Map("l" -> Seq((1, "a"), (2, "b")).toDF("k", "s"), "r" -> Seq((1, "x")).toDF("k2", "t"))
    val counted = Agg(4, Agg.keys("s"), Seq(AggSpec.countStar("cnt")),
      Join(3, JoinKind.Left, Seq("k" -> "k2"), TableAccess(1, "l"), TableAccess(2, "r")))
    assert(Eval(counted, tables).collect().map(r => r.getString(0) -> r.getLong(1)).toMap == Map("a" -> 1L, "b" -> 1L))
    // b is missing under cnt = 0 and present under cnt = 1
    Seq(0L, 1L).foreach { cnt =>
      val q = Question(Selection(5, Pred.eq("cnt", cnt), counted), tables, Nip.tup("s" -> NConst("b")))
      Seq[Question => Any](Explain.rp, Explain.rpNoSA, Baselines.wnPlusPlus).foreach { approach =>
        val e = intercept[UnsupportedTraceInput](approach(q))
        assert(e.opLabel == "⟕3" && e.getMessage.contains("⟕3"), s"cnt = $cnt")
      }
    }
  }

  // a nested table no data generator builds: its structure is known only
  // from its own schema
  private def inline(elem: String): Map[String, org.apache.spark.sql.DataFrame] =
    Map("inline" -> spark.range(3).selectExpr("id AS k", s"array($elem) AS items"))

  private val flattenInline = FlattenRel(1, "items", outer = false, TableAccess(0, "inline"))

  test("a nested table is read through its own schema by Eval and RP") {
    val t = inline("named_struct('nm', cast(id AS string), 'qty', id)")
    val q = Selection(2, Pred.gt("qty", 1L), flattenInline)
    assert(Eval(q, t).columns.toSeq == Seq("k", "nm", "qty"))
    assert(Eval(q, t).count() == 1)
    assert(Explain.rp(Question(q, t, Nip.tup("nm" -> NConst("0")))).map(_.labels) == Seq(Set("σ2")))
  }

  test("one table name with two schemas: each question flattens its own fields") {
    val a = inline("named_struct('x', id, 'y', id)")
    val b = inline("named_struct('z', cast(id AS string))")
    assert(Eval(flattenInline, a).columns.toSeq == Seq("k", "x", "y"))
    assert(Eval(flattenInline, b).columns.toSeq == Seq("k", "z"))
    val q = Selection(2, Pred.gt("k", 1L), flattenInline)
    assert(Explain.rp(Question(q, a, Nip.tup("y" -> NConst(0L)))).map(_.labels) == Seq(Set("σ2")))
    assert(Explain.rp(Question(q, b, Nip.tup("z" -> NConst("0")))).map(_.labels) == Seq(Set("σ2")))
  }
}
