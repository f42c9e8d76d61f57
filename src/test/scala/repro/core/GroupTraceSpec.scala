package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.Nondeterministic
import repro.SparkSpec
import repro.data.Person
import repro.nrab._
import repro.scenarios.Tables
import repro.whynot._

/** Merged-SA tracing (paper §6.3, Fig. 11): the schema alternatives of one
  * row grain share one traced relation and one witness query, and each
  * alternative's lane answers exactly what its own trace answers.
  */
class GroupTraceSpec extends SparkSpec {

  private lazy val all = Tables.scenarios(spark)

  private def alternatives(q: Question): Seq[SchemaAlternative] =
    SchemaAlts.enumerate(q.query, q.altGroups, q.tableSchemas)

  /** The alternatives grouped as `Explain.rp` groups them. */
  private def groups(q: Question): Seq[Seq[SchemaAlternative]] = {
    val ts = q.tableSchemas
    alternatives(q).groupBy(sa => Trace.rowGrain(sa.query, ts)).values.toSeq.sortBy(_.head.index)
  }

  test("row grain: T1 and T3 trace 2 groups, every other scenario 1") {
    // T1/T3 explode entities.media in one alternative and entities.urls in
    // the other; D4, T2, T4 and T_ASD swap only a tuple flatten, which
    // keeps the rows
    val counts = all.map(s => s.name -> groups(s.question).size)
    assert(counts.size == 25)
    assert(all.map(s => alternatives(s.question).size).sum == 148)
    assert(counts.filter(_._2 != 1).toMap == Map("T1" -> 2, "T3" -> 2))
  }

  test("differential: every alternative's lane in its group equals its solo trace") {
    all.foreach { s =>
      val q = s.question; val ts = q.tableSchemas
      groups(q).foreach { g =>
        val placed = g.map(sa => sa.query -> Placement.backtrace(sa.query, q.nip, ts))
        val lanes = Explain.witnessFailSets(Trace.group(placed, q.tables, ts))
        g.zip(placed).zip(lanes).foreach { case ((sa, (query, p)), lane) =>
          val solo = Explain.witnessFailSets(Trace.trace(query, q.tables, p, ts))
          assert(lane.sortBy(_.toString) == solo.sortBy(_.toString), s"${s.name} SA ${sa.index}")
        }
      }
    }
  }

  test("Explain.rp runs one witness query per row-grain group: Q1F 1, D4 1, T3 2") {
    def rpQueries(name: String) = queriesRunBy(Explain.rp(all.find(_.name == name).get.question))
    assert(rpQueries("Q1F") == 1)
    assert(rpQueries("D4") == 1)
    assert(rpQueries("T3") == 2)
  }

  /** Does the plan of ``df`` compute a nondeterministic expression (a row
    * id, a random number) above its cached input tables?
    */
  private def nondeterministic(df: DataFrame): Boolean =
    df.queryExecution.withCachedData.exists(_.expressions.exists(_.exists {
      case _: Nondeterministic => true
      case _                   => false
    }))

  test("RP traces carry no lineage annotations; the baselines' trace does") {
    all.foreach { s =>
      val q = s.question; val ts = q.tableSchemas
      val p = Placement.backtrace(q.query, q.nip, ts)
      val rp = Trace.trace(q.query, q.tables, p, ts)
      assert(rp.df.columns.forall(c => !c.contains("_compat_") && !c.contains("rid") && !c.contains("_wn")), s.name)
      assert(!nondeterministic(rp.df), s"${s.name}: nondeterministic RP trace")
      val wn = Trace.lineage(q.query, q.tables, p, ts)
      // one lane per table, in query order
      assert(wn.keys.toSeq == q.query.allOps.collect { case TableAccess(_, n) => n }.distinct, s.name)
      // every join is tracked, by each side's lanes through its partner flag
      val joins = q.query.allOps.collect { case j: Join => j.id }.toSet
      val tracked = wn.values.flatMap(_.tracked).toSeq
      assert(tracked.map(_.opId).toSet.intersect(joins) == joins, s.name)
      assert(tracked.filter(t => joins(t.opId)).forall(_.retCol.matches("__c\\d+_wn[LR]_\\d+")), s.name)
      // partner flags are windows over the join keys, not over row ids
      assert(!nondeterministic(wn.values.head.df), s"${s.name}: nondeterministic lineage trace")
    }
  }

  private def person: Op =
    Projection(3, ProjCol.keep("name", "city"),
      Selection(2, Pred.ge("year", 2019), FlattenRel(1, "address2", outer = false, TableAccess(0, "person"))))

  test("a group whose queries flatten different attributes is rejected by name") {
    val tables = Map("person" -> Person.table(spark))
    val ts = tables.map { case (n, df) => n -> df.schema }
    val sas = SchemaAlts.enumerate(person, Seq(AltGroup(Seq("person.address2", "person.address1"))), ts)
    assert(sas.size == 2)
    assert(Trace.rowGrain(sas(0).query, ts) != Trace.rowGrain(sas(1).query, ts))
    val nip = Nip.tup("city" -> NConst("NY"))
    val e = intercept[RowGrainMismatch] {
      Trace.group(sas.map(sa => sa.query -> Placement.backtrace(sa.query, nip, ts)), tables, ts)
    }
    assert(e.getMessage.contains("F^I1"))
  }

  test("tracing a union raises UnsupportedTraceInput naming the operator") {
    val tables = Map("person" -> Person.table(spark))
    val ts = tables.map { case (n, df) => n -> df.schema }
    val u = UnionOp(5, person, person)
    val e = intercept[UnsupportedTraceInput] {
      Trace.trace(u, tables, Placement.backtrace(u, Nip.tup("city" -> NConst("NY")), ts), ts)
    }
    assert(e.opLabel == "∪5" && e.getMessage.contains("∪5"))
  }
}
