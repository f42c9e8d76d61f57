package repro.scenarios

import java.math.MathContext
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.core.{Placement, SchemaAlts, Source, SrcNested, Trace, Traced}
import repro.nrab.{Agg, Eval, Flatten, Projection, TableAccess}

/** Aggregate reproduction of the paper's evaluation tables at unit-test
  * scale: Table 7 (counts + gold ranks), Table 3 (operator types per
  * formalism), and the §6.4 crime comparison. Table 8's explicit sets are
  * asserted per scenario in the dedicated specs.
  */
class TablesSpec extends SparkSpec {

  private lazy val all = Tables.scenarios(spark)
  private lazy val results = Tables.run(all)

  test("schema calculus agrees with Eval on every scenario query and schema alternative") {
    all.foreach { s =>
      val q = s.question; val ts = q.tableSchemas
      val queries = q.query +: SchemaAlts.enumerate(q.query, q.altGroups, ts).map(_.query)
      queries.foreach { query =>
        val schemas = Source.schemas(query, ts)
        // every operator's entry, not only the root's
        query.allOps.foreach { op =>
          assert(schemas(op.id).keys.toSeq == Eval(op, q.tables).columns.toSeq, s"${s.name} ${op.label}")
        }
        query.allOps.collect { case f: Flatten if f.aliases.isEmpty => f }.foreach { f =>
          val promoted = Source.promoted(f, schemas(f.in.id)(f.attr), ts).map(_._2)
          val actual = Eval.elementStruct(Eval(f.in, q.tables).schema(f.attr).dataType)
          assert(actual.map(_.fieldNames.toSeq).contains(promoted), s"${s.name} ${f.label}")
        }
      }
    }
  }

  /** Per scenario: its query's output columns that are not nesting
    * outputs, and the query's trace.
    */
  private lazy val traced: Seq[(Scenario, Seq[String], Traced)] = all.map { s =>
    val q = s.question; val ts = q.tableSchemas
    val out = Source.colSources(q.query, ts).collect { case (c, src) if !src.isInstanceOf[SrcNested] => c }.toSeq
    (s, out, Trace.trace(q.query, q.tables, Placement.backtrace(q.query, q.nip, ts), ts))
  }

  test("a scenario query's trace resolves every output column but the nesting outputs") {
    traced.foreach { case (s, out, t) => assert(t.cols.keySet == out.toSet, s.name) }
  }

  test("the tracer's original world agrees with Eval on all scenario queries but Q4, Q4F, Q13, Q13F") {
    // window and hash-aggregate sums differ in the last digits
    def rows(df: DataFrame): Set[Seq[Any]] = df.distinct().collect().map(_.toSeq.map {
      case d: Double => BigDecimal(d).round(new MathContext(6)).toDouble
      case v         => v
    }).toSet
    val disagree = traced.collect { case (s, out, t)
      if rows(t.df.filter(col(t.alive)).select(out.map(c => col(t.cols(c))): _*)) !=
        rows(Eval(s.question.query, s.question.tables).select(out.map(col): _*)) => s.name }
    // A known fault, pinned so that the set can neither grow nor shrink
    // unnoticed: a row-grain aggregation keeps one row per input row, so
    // an aggregation above it counts each group once per member (Q4F's
    // γ30 over ⋈113, Q13's γ124 over γ125).
    assert(disagree.toSet == Set("Q4", "Q4F", "Q13", "Q13F"),
      "the original world of an aggregation over a row-grain aggregation (ROADMAP item 4)")
  }

  test("constraints are placed at operators and tables of the query, on columns they output") {
    val placed = all.flatMap { s =>
      val q = s.question; val ts = q.tableSchemas
      (q.query +: SchemaAlts.enumerate(q.query, q.altGroups, ts).map(_.query))
        .map(op => (s.name, op, ts, Placement.backtrace(op, q.nip, ts)))
    }
    assert(placed.size == all.size + 148) // each original query and all its alternatives
    placed.foreach { case (name, op, ts, p) =>
      p.checks.foreach { case (id, cs) =>
        val at = op.find(id)
        assert(at.exists { case _: Projection | _: Flatten | _: Agg => true; case _ => false },
          s"$name: checks at $id name no projection, flatten or aggregation")
        val outs = Source.colSources(at.get, ts)
        cs.foreach { case (col, _) => assert(outs.contains(col), s"$name ${at.get.label}: $col") }
      }
      val read = op.allOps.collect { case TableAccess(_, n) => n }.toSet
      assert(p.tableNips.keySet.subsetOf(read), s"$name: ${p.tableNips.keySet} not read")
    }
  }

  test("Table 7: explanation counts match the paper for every scenario") {
    val paper = Tables.paperTable7.map(p => p._1 -> p).toMap
    Tables.table7Scenarios(all).foreach { s =>
      val r = results(s.name)
      val (_, pw, pn, pr, _) = paper(s.name)
      assert((r.wn.size, r.rpNoSa.size, r.rp.size) == ((pw, pn, pr)),
        s"${s.name}: measured ${(r.wn.size, r.rpNoSa.size, r.rp.size)} vs paper ${(pw, pn, pr)}")
    }
  }

  test("Table 7: gold-standard ranks match the paper") {
    val paper = Tables.paperTable7.map(p => p._1 -> p._5).toMap
    Tables.table7Scenarios(all).foreach { s =>
      val measured = s.gold.flatMap(results(s.name).goldPosition)
      assert(measured == paper(s.name), s"${s.name}: gold rank $measured vs ${paper(s.name)}")
    }
  }

  test("Table 7: RP always finds at least as many explanations as RPnoSA ≥ WN++") {
    Tables.table7Scenarios(all).foreach { s =>
      val r = results(s.name)
      assert(r.rp.size >= r.rpNoSa.size, s.name)
      assert(r.rpNoSa.size >= r.wn.size || r.wn.size == 1, s.name)
    }
  }

  test("Table 3 (NRAB row): lineage explanations contain only σ/⋈/F^I; " +
       "reparameterization adds π, F^T, N^T, γ") {
    val (lineage, reparam) = Tables.table3Symbols(results.values)
    assert(lineage == Set("σ", "⋈", "F^I"), s"lineage symbols: $lineage")
    assert(reparam == Set("σ", "⋈", "F^I", "π", "F^T", "N^T", "γ"), s"reparam symbols: $reparam")
  }

  test("Table 3 (SPC row): on the flat crime corpus lineage finds σ/⋈, ours adds π") {
    val crime = all.filter(_.name.startsWith("C"))
    val lineage = crime.flatMap(s => s.runWhyNot().toSeq.flatten ++ s.runConseil().toSeq.flatten)
      .map(Tables.symbolOf).toSet
    val reparam = crime.flatMap(_.runRp().flatMap(_.labels)).map(Tables.symbolOf).toSet
    assert(lineage == Set("σ", "⋈"))
    assert(reparam == Set("σ", "⋈", "π"))
  }

  test("crime comparison renders three rows") {
    val rows = Tables.crimeComparison(all)
    assert(rows.map(_._1) == Seq("C1", "C2", "C3"))
  }

  test("Table 7 and Table 8 render without error") {
    val t7 = Tables.renderTable7(all, results)
    val t8 = Tables.renderTable8(all, results)
    assert(t7.linesIterator.size >= 24)
    assert(t8.contains("Q13"))
  }
}
