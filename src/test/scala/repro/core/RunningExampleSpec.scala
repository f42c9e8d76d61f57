package repro.core

import repro.SparkSpec
import repro.baselines.Baselines
import repro.data.Person
import repro.nrab._
import repro.whynot._

/** End-to-end validation of the whole pipeline on the paper's running
  * example (Figure 1, Examples 9/10/19): why is NY missing?
  */
class RunningExampleSpec extends SparkSpec {

  // N^R_{name->nList}(π_{name,city}(σ_{year>=2019}(F^I_{address2}(person))))
  private def query: Op =
    NestRel(4, Seq("name"), "nList",
      Projection(3, ProjCol.keep("name", "city"),
        Selection(2, Pred.ge("year", 2019),
          FlattenRel(1, "address2", outer = false,
            TableAccess(0, "person")))))

  private def question = Question(
    query = query,
    tables = Map("person" -> Person.table(spark)),
    nip = Nip.tup("city" -> NConst("NY"), "nList" -> Nip.bagStar(NAny)),
    altGroups = Seq(AltGroup(Seq("person.address2", "person.address1")))
  )

  private def labels(es: Seq[Explanation]): Seq[Set[String]] = es.map(_.labels)

  test("original query returns only (LA, {Sue}) — Figure 1b") {
    val out = Eval(query, question.tables).collect()
    assert(out.length == 1)
    assert(out.head.getString(out.head.fieldIndex("city")) == "LA")
  }

  test("why-not tuple does not match the original result") {
    val out = Eval(query, question.tables).collect()
    val asLocal = out.map { r =>
      Seq("city" -> r.getAs[String]("city"),
          "nList" -> r.getSeq[Any](r.fieldIndex("nList")))
    }
    assert(!asLocal.exists(question.nip.matches(_)))
  }

  test("schema alternatives: exactly 2 survive pruning (Fig. 3)") {
    val sas = SchemaAlts.enumerate(query, question.altGroups, question.tableSchemas)
    assert(sas.size == 2)
    assert(sas.head.isOriginal && sas.head.sr.isEmpty)
    assert(sas(1).sr == Set(1)) // the flatten operator is reparameterized
  }

  test("schema backtracing produces t̄_person with the NY constraint (Ex. 11)") {
    val p = Placement.backtrace(query, question.nip, question.tableSchemas)
    assert(p.tableNips.keySet == Set("person"))
    val nip = p.nipFor("person")
    // Sue matches (address2 nests (NY, 2018)), Peter does not
    val sue = Seq("name" -> "Sue",
      "address2" -> Seq(Seq("city" -> "LA", "year" -> 2019), Seq("city" -> "NY", "year" -> 2018)))
    val peter = Seq("name" -> "Peter",
      "address2" -> Seq(Seq("city" -> "LA", "year" -> 2010), Seq("city" -> "SF", "year" -> 2018)))
    assert(nip.matches(sue))
    assert(!nip.matches(peter))
    // flatten revalidation check registered on the promoted city column
    assert(p.checks.contains(1))
  }

  test("RPnoSA finds {σ2} (Example 19, SR_1)") {
    assert(labels(Explain.rpNoSA(question)) == Seq(Set("σ2")))
  }

  test("RP finds {σ2} then {F^I1, σ2} in this order (Examples 10/19)") {
    assert(labels(Explain.rp(question)) == Seq(Set("σ2"), Set("F^I1", "σ2")))
  }

  test("WN++ finds only the selection (Example 2)") {
    assert(Baselines.wnPlusPlus(question) == Seq(Set(2)))
  }

  test("Why-Not and Conseil baselines agree with WN++ here") {
    assert(Baselines.conseil(question).contains(Set(2)))
    assert(Baselines.wnPlusPlus(question).headOption == Baselines.conseil(question))
  }
}
