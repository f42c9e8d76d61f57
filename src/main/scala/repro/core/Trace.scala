package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StructType
import repro.nrab._
import repro.whynot.Nip

/** One tracked (reparameterizable, tuple-pruning) operator of the traced
  * pipeline with the physical column holding its retained flag.
  */
final case class TrackedOp(opId: Int, retCol: String)

/** The annotated relation produced by data tracing (paper §5.3) for ONE
  * schema alternative, kept at row grain end-to-end:
  *
  *  - ``cols``       algebra column name -> physical column
  *  - ``consistent`` cumulative revalidated compatibility (paper's
  *                   consistent flag: the row can still contribute to the
  *                   missing answer)
  *  - ``alive``      the row survives the *original* pipeline so far
  *                   (all retained flags true) — used to compute original
  *                   aggregate values and original join partners
  *  - ``tracked``    retained flags per pruning operator (selection,
  *                   inner flatten, join), pipeline (bottom-up) order
  *  - ``compat``     per source table: source-level compatibility without
  *                   revalidation (for the lineage-based baselines)
  *  - ``wnJoin``     per join: original-world partner-existence flags for
  *                   the left/right lineage (baseline path deaths)
  */
final case class Traced(
    df: DataFrame,
    cols: Map[String, String],
    consistent: String,
    alive: String,
    tracked: Seq[TrackedOp],
    compat: Map[String, String],
    wnJoin: Map[Int, (String, String)],
    virtual: Set[String] = Set.empty) {
  def resolve(name: String): Column =
    col(cols.getOrElse(name, throw new IllegalArgumentException(
      s"unresolvable attribute $name (have ${cols.keys.toSeq.sorted.mkString(", ")})")))
}

object Trace {

  /** Trace ``query`` (already substituted for one SA) over ``catalog``
    * with the constraints of ``placement``. ``compatOverride`` replaces
    * the t̄-based source compatibility predicate per table (used by the
    * lineage baselines, whose notion of compatibility can be coarser).
    */
  def trace(query: Op, catalog: Map[String, DataFrame], placement: Placement,
            tableSchemas: Map[String, StructType],
            compatOverride: Map[String, Pred] = Map.empty): Traced = {
    val namer = new Namer
    go(query, catalog, placement, tableSchemas, namer, compatOverride)
  }

  private final class Namer {
    private var n = 0
    def fresh(hint: String): String = { n += 1; s"__c${n}_$hint" }
  }

  private def bool(c: Column): Column = coalesce(c, lit(false))

  private def go(op: Op, catalog: Map[String, DataFrame], placement: Placement,
                 ts: Map[String, StructType], nm: Namer,
                 compatOverride: Map[String, Pred]): Traced = op match {

    case TableAccess(_, name) =>
      val src = catalog(name)
      val colMap = src.columns.map(c => c -> nm.fresh(c)).toMap
      val consCol = nm.fresh("consistent"); val aliveCol = nm.fresh("alive")
      val compatCol = nm.fresh(s"compat_$name")
      val consExpr = bool(Nip.toColumn(placement.nipFor(name), n => src(n)))
      // compat-override predicates may use dotted paths into structs
      def dotted(n: String): Column = {
        val parts = n.split('.'); parts.tail.foldLeft(src(parts.head))(_.getField(_))
      }
      val compatExpr = compatOverride.get(name)
        .map(p => bool(p.toColumn(dotted))).getOrElse(consExpr)
      val df = src.select(
        src.columns.toSeq.map(c => src(c).as(colMap(c))) ++
          Seq(consExpr.as(consCol), compatExpr.as(compatCol), lit(true).as(aliveCol)): _*)
      Traced(df, colMap, consCol, aliveCol, Seq.empty, Map(name -> compatCol), Map.empty)

    case Selection(id, pred, in) =>
      val t = go(in, catalog, placement, ts, nm, compatOverride)
      val retCol = nm.fresh(s"ret_$id"); val aliveCol = nm.fresh("alive")
      val df = t.df
        .withColumn(retCol, bool(pred.toColumn(t.resolve)))
        .withColumn(aliveCol, col(t.alive) && col(retCol))
      t.copy(df = df, alive = aliveCol, tracked = t.tracked :+ TrackedOp(id, retCol))

    case Projection(id, cols, in) =>
      val t = go(in, catalog, placement, ts, nm, compatOverride)
      var df = t.df
      var virt = Set.empty[String]
      val newMap = cols.flatMap { c =>
        c.expr match {
          // nesting outputs have no physical column at row grain; they
          // stay virtual and pass through projections untouched
          case Attr(n) if t.virtual.contains(n) => virt += c.out; None
          case Attr(n) => Some(c.out -> t.cols(n))
          case e =>
            val pc = nm.fresh(c.out)
            df = df.withColumn(pc, e.toColumn(t.resolve))
            Some(c.out -> pc)
        }
      }.toMap
      val checks = placement.derivedChecks.getOrElse(id, Seq.empty)
      val (df2, cons2) = addChecks(df, t.consistent, checks.map { case (o, n) => (newMap(o), n) }, nm)
      t.copy(df = df2, cols = newMap, consistent = cons2, virtual = virt)

    case Renaming(_, renames, in) =>
      val t = go(in, catalog, placement, ts, nm, compatOverride)
      t.copy(cols = renames.map { case (nu, old) => nu -> t.cols(old) }.toMap)

    case f: Flatten =>
      val t = go(f.in, catalog, placement, ts, nm, compatOverride)
      // a relation flatten explodes the attribute into an element column;
      // a tuple flatten reads the attribute's fields directly
      var df = t.df
      val elem = f match {
        case _: FlattenRel =>
          val x = nm.fresh("x")
          df = df.withColumn(x, explode_outer(col(t.cols(f.attr))))
          col(x)
        case _: FlattenTup => col(t.cols(f.attr))
      }
      val fields = Source.promoted(f, Source.colSources(f.in, ts)(f.attr), ts)
      val promoted = fields.map { case (out, field) =>
        val pc = nm.fresh(out)
        df = df.withColumn(pc, elem.getField(field))
        out -> pc
      }.toMap
      var t2 = t.copy(df = df, cols = (if (f.keepsAttr) t.cols else t.cols - f.attr) ++ promoted)
      f match {
        // only an inner flatten can drop rows, so only it records a retained flag
        case FlattenRel(id, _, false, _, _) =>
          val retCol = nm.fresh(s"ret_$id"); val aliveCol = nm.fresh("alive")
          val df2 = t2.df
            .withColumn(retCol, elem.isNotNull)
            .withColumn(aliveCol, col(t2.alive) && col(retCol))
          t2 = t2.copy(df = df2, alive = aliveCol, tracked = t2.tracked :+ TrackedOp(id, retCol))
        case _ => ()
      }
      val checks = placement.flattenChecks.getOrElse(f.id, Seq.empty)
      val (df3, cons2) = addChecks(t2.df, t2.consistent, checks.map { case (o, n) => (promoted(o), n) }, nm)
      t2.copy(df = df3, consistent = cons2)

    case Join(id, kind, conds, l, r) =>
      val tl = go(l, catalog, placement, ts, nm, compatOverride)
      val tr = go(r, catalog, placement, ts, nm, compatOverride)
      val (pl, pr)    = (nm.fresh("pL"), nm.fresh("pR"))
      val (lrid, rrid) = (nm.fresh("lrid"), nm.fresh("rrid"))
      val ldf = tl.df.withColumn(pl, lit(1)).withColumn(lrid, monotonically_increasing_id())
      val rdf = tr.df.withColumn(pr, lit(1)).withColumn(rrid, monotonically_increasing_id())
      val cond = conds.map { case (a, b) => ldf(tl.cols(a)) === rdf(tr.cols(b)) }
        .reduceOption(_ && _).getOrElse(lit(true))
      var df = ldf.join(rdf, cond, "full_outer")

      val hasL = col(pl).isNotNull; val hasR = col(pr).isNotNull
      val lKeyNull = conds.map { case (a, _) => col(tl.cols(a)).isNull }
        .reduceOption(_ || _).getOrElse(lit(false))
      val rKeyNull = conds.map { case (_, b) => col(tr.cols(b)).isNull }
        .reduceOption(_ || _).getOrElse(lit(false))

      // retained under the *original* join type, evaluated on the traced
      // (relaxed) inputs; rows padded because an upstream operator punched
      // a hole (null keys from padding) are not this join's fault.
      val baseRet = kind match {
        case JoinKind.Inner => hasL && hasR
        case JoinKind.Left  => hasL
        case JoinKind.Right => hasR
        case JoinKind.Full  => lit(true)
      }
      val retCol = nm.fresh(s"ret_$id")
      df = df.withColumn(retCol, baseRet || (hasL && lKeyNull) || (hasR && rKeyNull))

      // original-world survival of a pairing: both sides alive and matched
      val aliveCol = nm.fresh("alive")
      df = df.withColumn(aliveCol,
        bool(col(tl.alive)) && bool(col(tr.alive)) && hasL && hasR)

      // original-world partner existence per lineage side (baselines)
      val wL = Window.partitionBy(col(lrid)); val wR = Window.partitionBy(col(rrid))
      val (wnL, wnR) = (nm.fresh(s"wnL_$id"), nm.fresh(s"wnR_$id"))
      df = df
        .withColumn(wnL, (max(when(hasR && bool(col(tr.alive)), 1).otherwise(0)).over(wL) === 1) || lKeyNull)
        .withColumn(wnR, (max(when(hasL && bool(col(tl.alive)), 1).otherwise(0)).over(wR) === 1) || rKeyNull)

      val lConstrained = isConstrained(l, placement)
      val rConstrained = isConstrained(r, placement)
      val consCol = nm.fresh("consistent")
      df = df.withColumn(consCol,
        coalesce(col(tl.consistent), lit(!lConstrained)) &&
          coalesce(col(tr.consistent), lit(!rConstrained)))

      Traced(df, tl.cols ++ tr.cols, consCol, aliveCol,
        tl.tracked ++ tr.tracked :+ TrackedOp(id, retCol),
        tl.compat ++ tr.compat, tl.wnJoin ++ tr.wnJoin + (id -> (wnL, wnR)))

    case Agg(id, groupBy, aggs, in) =>
      val t = go(in, catalog, placement, ts, nm, compatOverride)
      val keyCols = groupBy.map { case (_, a) => col(t.cols(a)) }
      val w = if (keyCols.isEmpty) Window.partitionBy(lit(1)) else Window.partitionBy(keyCols: _*)
      var df = t.df
      val outMap = scala.collection.mutable.Map[String, String]()
      groupBy.foreach { case (o, a) => outMap(o) = t.cols(a) }
      def value(spec: AggSpec) = spec.expr.map(_.toColumn(t.resolve))
      aggs.foreach { spec =>
        val pc = nm.fresh(spec.out)
        // the aggregate's value in the ORIGINAL pipeline
        df = df.withColumn(pc, spec.func.aliveOver(value(spec), col(t.alive), w))
        outMap(spec.out) = pc
      }
      // aggregate-constraint satisfiability under full relaxation
      var cons = col(t.consistent)
      placement.aggChecks.getOrElse(id, Seq.empty).foreach { case (out, prim) =>
        val spec = aggs.find(_.out == out).getOrElse(
          throw new IllegalArgumentException(s"agg constraint on unknown output $out"))
        val (lo, hi) = spec.func.relaxedOver(value(spec), w)
        cons = cons && bool(Nip.satisfiable(prim, lo, hi))
      }
      val consCol = nm.fresh("consistent")
      df = df.withColumn(consCol, cons)
      t.copy(df = df, cols = outMap.toMap, consistent = consCol)

    // Nesting keeps row grain in the tracer: the group members stay
    // visible and the element constraints were already pushed to them by
    // backtracing; the nested attribute becomes a *virtual* column that
    // downstream projections may pass through but no predicate may read.
    case NestRel(_, _, out, in) =>
      val t = go(in, catalog, placement, ts, nm, compatOverride)
      t.copy(virtual = t.virtual + out)

    case NestTup(_, _, out, in) =>
      val t = go(in, catalog, placement, ts, nm, compatOverride)
      t.copy(virtual = t.virtual + out)

    case Dedup(_, in) =>
      go(in, catalog, placement, ts, nm, compatOverride)

    case UnionOp(_, _, _) =>
      throw new UnsupportedOperationException("tracing through union is not supported")
  }

  /** Conjoin primitive checks (null-safe) onto the consistency flag. */
  private def addChecks(df: DataFrame, consistent: String,
                        checks: Seq[(String, Nip)], nm: Namer): (DataFrame, String) =
    if (checks.isEmpty) (df, consistent)
    else {
      val expr = checks.map { case (pc, n) => Nip.primColumn(n, col(pc)) }.reduce(_ && _)
      val c2 = nm.fresh("consistent")
      (df.withColumn(c2, col(consistent) && bool(expr)), c2)
    }

  /** Does the subtree rooted at ``op`` carry any why-not constraint? */
  private def isConstrained(op: Op, placement: Placement): Boolean = {
    val ops = op.allOps
    val ids = ops.map(_.id).toSet
    val tables = ops.collect { case TableAccess(_, n) => n }.toSet
    tables.exists(placement.constrainedTables.contains) ||
      ids.exists(placement.flattenChecks.contains) ||
      ids.exists(placement.derivedChecks.contains) ||
      ids.exists(placement.aggChecks.contains)
  }
}
