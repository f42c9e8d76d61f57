package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.StructType
import repro.nrab._
import repro.whynot.Nip
import scala.collection.immutable.ListMap
import scala.collection.mutable

/** One tracked (reparameterizable, tuple-pruning) operator of the traced
  * pipeline with the physical column holding its retained flag.
  */
final case class TrackedOp(opId: Int, retCol: String)

/** The annotated relation produced by data tracing (paper §5.3) for ONE
  * schema alternative, kept at row grain end-to-end. Alternatives of the
  * same row grain are traced together ([[Trace.group]]): they share
  * ``df`` and each reads its own columns of it.
  *
  *  - ``cols``       each output column of the traced query -> its
  *                   physical column, except the nesting outputs
  *                   ([[SrcNested]] in [[Source.schemas]]), which have none
  *  - ``consistent`` cumulative revalidated compatibility (paper's
  *                   consistent flag: the row can still contribute to the
  *                   missing answer)
  *  - ``alive``      the row survives the *original* pipeline so far
  *                   (all retained flags true) — used to compute original
  *                   aggregate values and original join partners
  *  - ``tracked``    retained flags per pruning operator (selection,
  *                   inner flatten, join), pipeline (bottom-up) order
  *
  * The lanes of [[Trace.lineage]], the baselines' trace, are one per
  * source table instead: ``consistent`` is the table's compatibility
  * without revalidation, and ``tracked`` holds the operators on the
  * table's path, a join's flag being its original-world partner existence
  * for the table's side.
  */
final case class Traced(
    df: DataFrame,
    cols: Map[String, String],
    consistent: String,
    alive: String,
    tracked: Seq[TrackedOp])

/** An input the tracer cannot handle (outside paper §5.5's restrictions);
  * ``opLabel`` names the operator.
  */
final class UnsupportedTraceInput(val opLabel: String, reason: String)
    extends UnsupportedOperationException(s"cannot trace $opLabel: $reason")

/** The queries traced as one group resolve a row-grain column (a relation
  * flatten's attribute or a join key) to different physical columns, so
  * they cannot share one traced relation.
  */
final class RowGrainMismatch(msg: String) extends IllegalArgumentException(msg)

object Trace {

  /** Trace ``query`` (already substituted for one SA) over ``catalog``
    * with the constraints of ``placement``: the one-query group.
    */
  def trace(query: Op, catalog: Map[String, DataFrame], placement: Placement,
            tableSchemas: Map[String, StructType]): Traced =
    group(Seq(query -> placement), catalog, tableSchemas).head

  /** Trace ``queries`` — alternatives of one query with equal
    * [[rowGrain]], each with its placement — in ONE annotated relation
    * (paper §6.3, Fig. 11). Table scans, explodes and joins are shared;
    * every operator adds all queries' annotation columns in one select,
    * and queries computing an identical annotation share its column.
    * Returns one [[Traced]] per query, in order, all over the same ``df``.
    */
  def group(queries: Seq[(Op, Placement)], catalog: Map[String, DataFrame],
            tableSchemas: Map[String, StructType]): Seq[Traced] =
    new Tracer(catalog, queries, tableSchemas, lineage = None).go(queries.map(_._1))

  /** Trace ``query`` for the lineage baselines: one lane per table the
    * query reads, keyed by table name in query order, all over one ``df``.
    * A table's lane is consistent where a source tuple is compatible (no
    * revalidation) and tracks only the operators on the table's path; at
    * a join it reads whether the table's side has an original-world
    * partner. ``compatOverride`` replaces the t̄-based source
    * compatibility predicate per table (the lineage baselines' notion of
    * compatibility can be coarser).
    */
  def lineage(query: Op, catalog: Map[String, DataFrame], placement: Placement,
              tableSchemas: Map[String, StructType],
              compatOverride: Map[String, Pred] = Map.empty): ListMap[String, Traced] = {
    val tracer = new Tracer(catalog, Seq(query -> placement), tableSchemas, Some(compatOverride))
    val traced = tracer.go(Seq(query)).head
    val tables = query.allOps.collect { case TableAccess(_, n) => n }.distinct
    ListMap.from(tables.map { table =>
      def reads(op: Op) = op.allOps.exists { case TableAccess(_, n) => n == table; case _ => false }
      table -> traced.copy(consistent = tracer.compat(table), tracked = traced.tracked.flatMap { t =>
        val op = query.find(t.opId).get
        Option.when(reads(op))(op match {
          case j: Join =>
            val (wl, wr) = tracer.partners(j.id)
            t.copy(retCol = if (reads(j.left)) wl else wr)
          case _ => t
        })
      })
    })
  }

  /** The row grain of ``query``'s trace: the provenance of every relation
    * flatten's attribute and every join key. Selections, projections,
    * renamings, aggregations (row-grain windows), tuple flattens and
    * nestings keep the tracer's rows, so alternatives of one query with
    * equal row grain trace the same rows and can share one [[group]].
    */
  def rowGrain(query: Op, tableSchemas: Map[String, StructType]): Seq[(Int, Seq[SourceRef])] = {
    val src = Source.schemas(query, tableSchemas)
    query.allOps.collect {
      case f: FlattenRel => f.id -> Seq(src(f.in.id)(f.attr))
      case j: Join => j.id -> j.conds.flatMap { case (a, b) => Seq(src(j.left.id)(a), src(j.right.id)(b)) }
    }
  }

  private def bool(c: Column): Column = coalesce(c, lit(false))

  /** One traced query's placement and [[Source.schemas]] table. */
  private final case class Lane(placement: Placement, schemas: Map[Int, Source.Schema]) {
    /** Is ``in``'s output ``a`` a nesting output (no physical column)? */
    def nested(in: Op, a: String): Boolean = schemas(in.id)(a).isInstanceOf[SrcNested]

    /** ``in``'s output ``a`` in ``t``, read by ``op`` as its ``what``. */
    def read(t: Traced, op: Op, in: Op, a: String, what: String): String =
      if (nested(in, a)) throw new UnsupportedTraceInput(op.label,
        s"its $what $a is a nesting output, which the row-grain tracer does not build")
      else t.cols(a)
  }

  /** One trace with a lane per query of ``queries``. ``lineage`` holds
    * the compat overrides when the baselines' lineage annotations of the
    * one traced query are wanted; the tracer records their columns in
    * ``compat`` and ``partners``.
    */
  private final class Tracer(catalog: Map[String, DataFrame], queries: Seq[(Op, Placement)],
                             ts: Map[String, StructType], lineage: Option[Map[String, Pred]]) {
    private val lanes = queries.map { case (q, p) => Lane(p, Source.schemas(q, ts)) }
    /** Per source table: compatibility without revalidation. */
    val compat = mutable.Map.empty[String, String]
    /** Per join: original-world partner existence for its left/right side. */
    val partners = mutable.Map.empty[Int, (String, String)]

    private var n = 0
    private def fresh(hint: String): String = { n += 1; s"__c${n}_$hint" }

    /** One operator's new columns, added lane by lane and selected at once
      * ([[over]]). ``add`` returns an expression's physical column at
      * once: the one it already has when another lane added the same
      * expression.
      */
    private final class Cols {
      private val named = mutable.LinkedHashMap.empty[Column, String]
      def add(hint: String, c: Column): String = named.getOrElseUpdate(c, fresh(hint))

      /** ``traced`` over ``df`` with ``keep`` and the added columns. */
      def over(df: DataFrame, traced: Seq[Traced], keep: Seq[Column] = Seq(col("*"))): Seq[Traced] = {
        val out = if (named.isEmpty) df else df.select(keep ++ named.map { case (c, pc) => c.as(pc) }: _*)
        traced.map(_.copy(df = out))
      }
    }

    /** The one physical column all lanes resolve ``what`` of ``op`` to. */
    private def shared(op: Op, what: String, physical: Seq[String]): String =
      if (physical.distinct.size == 1) physical.head
      else throw new RowGrainMismatch(
        s"traced queries resolve the $what of ${op.label} to different columns (${physical.distinct.mkString(", ")})")

    /** Trace ``ops`` — the same operator of every lane's query. Only
      * table access, the join and a relation flatten's explode act on the
      * whole group; every other operator is one [[step]] per lane.
      */
    def go(ops: Seq[Op]): Seq[Traced] = {
      val op = ops.head
      if (ops.exists(o => o.id != op.id || o.getClass != op.getClass))
        throw new IllegalArgumentException(
          s"traced queries differ in shape at ${ops.map(_.label).distinct.mkString(", ")}")
      op match {
        case TableAccess(_, name) => table(name)
        case j: Join if j.kind != JoinKind.Inner => throw new UnsupportedTraceInput(j.label,
          "the tracer's original world keeps only matched pairs, not an outer join's padded rows")
        case _: Join => join(ops.collect { case j: Join => j })
        case u: UnionOp =>
          throw new UnsupportedTraceInput(u.label, "the row-grain tracer does not trace through a union")
        case _ =>
          val in = go(ops.map(_.children.head))
          // a relation flatten explodes its (shared) attribute once; each
          // lane then reads the element column in the attribute's place
          val read = op match {
            case _: FlattenRel =>
              val fs = ops.collect { case f: FlattenRel => f }
              val attr = shared(op, "flattened attribute", in.zip(fs).zip(lanes).map { case ((t, f), l) =>
                l.read(t, f, f.in, f.attr, "flattened attribute") })
              val x = fresh("x")
              val df = in.head.df.select(col("*"), explode_outer(col(attr)).as(x))
              in.zip(fs).map { case (t, f) => t.copy(df = df, cols = t.cols + (f.attr -> x)) }
            case _ => in
          }
          val cols = new Cols
          cols.over(read.head.df, read.zip(ops).zip(lanes).map { case ((t, o), l) => step(o, t, l, cols) })
      }
    }

    private def table(name: String): Seq[Traced] = {
      val src = catalog(name)
      val colMap = src.columns.map(c => c -> fresh(c)).toMap
      val cols = new Cols
      val cons = lanes.map(l => bool(Nip.toColumn(l.placement.nipFor(name), c => src(c))))
      val traced = cons.map(c => Traced(src, colMap, cols.add("consistent", c), cols.add("alive", lit(true)), Seq.empty))
      lineage.foreach(o => compat(name) =
        cols.add(s"compat_$name", o.get(name).map(p => bool(p.toColumn(src(_)))).getOrElse(cons.head)))
      cols.over(src, traced, keep = src.columns.toSeq.map(c => src(c).as(colMap(c))))
    }

    /** ``op``'s annotation rule (paper §5.3) for lane ``l``, whose trace
      * of ``op``'s input is ``t``; the columns it adds go to ``cols``.
      */
    private def step(op: Op, t: Traced, l: Lane, cols: Cols): Traced = {
      val in = op.children.head
      val attr = (a: String) => col(l.read(t, op, in, a, "attribute"))
      val checks = l.placement.checks.getOrElse(op.id, Seq.empty)
      // t's consistency conjoined with the operator's checks (null-safe)
      def consistent(checked: Seq[Column]): String =
        checked.reduceOption(_ && _).fold(t.consistent)(c => cols.add("consistent", col(t.consistent) && bool(c)))
      op match {
        case s: Selection =>
          val ret = bool(s.pred.toColumn(attr))
          val tracked = t.tracked :+ TrackedOp(s.id, cols.add(s"ret_${s.id}", ret))
          t.copy(alive = cols.add("alive", col(t.alive) && ret), tracked = tracked)

        case r: Renaming =>
          t.copy(cols = r.renames.collect { case (nu, old) if !l.nested(in, old) => nu -> t.cols(old) }.toMap)

        case p: Projection =>
          // kept columns stay, derived values get a column and nesting
          // outputs pass through
          val kept = p.cols.collect { case ProjCol(o, Attr(a)) if !l.nested(in, a) => o -> t.cols(a) }
          val derived = p.cols.filterNot(_.expr.isInstanceOf[Attr]).map(c => c.out -> c.expr.toColumn(attr))
          val value = kept.map { case (o, pc) => o -> col(pc) }.toMap ++ derived
          t.copy(cols = (kept ++ derived.map { case (o, c) => o -> cols.add(o, c) }).toMap,
            consistent = consistent(checks.map { case (o, nip) => Nip.primColumn(nip, value(o)) }))

        case f: Flatten =>
          val elem = col(l.read(t, f, in, f.attr, "flattened attribute"))
          val promoted = Source.promoted(f, l.schemas(in.id)(f.attr), ts)
            .map { case (o, field) => o -> elem.getField(field) }
          // only an inner flatten can drop rows, so only it records a retained flag
          val ret = f match {
            case FlattenRel(_, _, false, _, _) => Some(elem.isNotNull)
            case _                             => None
          }
          t.copy(
            cols = (if (f.keepsAttr) t.cols else t.cols - f.attr) ++ promoted.map { case (o, c) => o -> cols.add(o, c) },
            alive = ret.fold(t.alive)(r => cols.add("alive", col(t.alive) && r)),
            tracked = t.tracked ++ ret.map(r => TrackedOp(f.id, cols.add(s"ret_${f.id}", r))),
            consistent = consistent(checks.map { case (o, nip) => Nip.primColumn(nip, promoted.toMap.apply(o)) }))

        case a: Agg =>
          val keys = a.groupBy.map { case (o, k) => o -> l.read(t, a, in, k, "group-by key") }
          val w = if (keys.isEmpty) Window.partitionBy(lit(1)) else Window.partitionBy(keys.map(k => col(k._2)): _*)
          def value(spec: AggSpec) = spec.expr.map(_.toColumn(attr))
          // each aggregate's value in the ORIGINAL pipeline
          val outs = a.aggs.map(spec => spec.out -> cols.add(spec.out, spec.func.aliveOver(value(spec), col(t.alive), w)))
          // aggregate-constraint satisfiability under full relaxation
          t.copy(cols = (keys ++ outs).toMap, consistent = consistent(checks.map { case (out, prim) =>
            val spec = a.aggs.find(_.out == out).getOrElse(
              throw new IllegalArgumentException(s"agg constraint on unknown output $out"))
            val (lo, hi) = spec.func.relaxedOver(value(spec), w)
            Nip.satisfiable(prim, lo, hi)
          }))

        // Nesting keeps row grain in the tracer: the group members stay
        // visible, their element constraints already pushed to them by
        // backtracing. The nesting output has no physical column: only
        // projections, renamings and joins pass it through (see Lane);
        // the columns it consumed leave the lane.
        case _: NestRel | _: NestTup | _: Dedup =>
          t.copy(cols = t.cols.filter { case (a, _) => l.schemas(op.id).contains(a) })

        case other => throw new IllegalStateException(s"${other.label} is traced for the whole group")
      }
    }

    private def join(js: Seq[Join]): Seq[Traced] = {
      val (ls, rs) = (go(js.map(_.left)), go(js.map(_.right)))
      val j0 = js.head
      val keys = j0.conds.indices.map { i =>
        def key(what: String, side: Seq[Traced], in: Join => Op, attr: Join => String) = shared(j0, what,
          side.zip(js).zip(lanes).map { case ((t, j), l) => l.read(t, j, in(j), attr(j), what) })
        (key("left join key", ls, _.left, _.conds(i)._1), key("right join key", rs, _.right, _.conds(i)._2))
      }
      // a presence flag per side
      val (pl, pr) = (fresh("pL"), fresh("pR"))
      val ldf = ls.head.df.select(col("*"), lit(1).as(pl))
      val rdf = rs.head.df.select(col("*"), lit(1).as(pr))
      val cond = keys.map { case (a, b) => ldf(a) === rdf(b) }.reduceOption(_ && _).getOrElse(lit(true))
      val joined = ldf.join(rdf, cond, "full_outer")

      val hasL = col(pl).isNotNull; val hasR = col(pr).isNotNull
      val lKeyNull = keys.map { case (a, _) => col(a).isNull }.reduceOption(_ || _).getOrElse(lit(false))
      val rKeyNull = keys.map { case (_, b) => col(b).isNull }.reduceOption(_ || _).getOrElse(lit(false))
      val cols = new Cols
      // retained by the inner join, evaluated on the traced (relaxed)
      // inputs; rows padded because an upstream operator punched a hole
      // (null keys from padding) are not this join's fault.
      val ret = cols.add(s"ret_${j0.id}", (hasL && hasR) || (hasL && lKeyNull) || (hasR && rKeyNull))

      cols.over(joined, ls.zip(rs).zip(js).zip(lanes).map { case (((tl, tr), j), l) =>
        // original-world survival of a pairing: both sides alive and matched
        val alive = bool(col(tl.alive)) && bool(col(tr.alive)) && hasL && hasR
        val cons = coalesce(col(tl.consistent), lit(!l.placement.constrains(j.left))) &&
          coalesce(col(tr.consistent), lit(!l.placement.constrains(j.right)))
        // original-world partner existence per lineage side (baselines): in
        // an equi-join every row with key k has the same partners
        def partner(key: Seq[String], other: Traced, otherHere: Column, keyNull: Column) =
          (max(when(otherHere && bool(col(other.alive)), 1).otherwise(0))
            .over(Window.partitionBy(key.map(col): _*)) === 1) || keyNull
        lineage.foreach(_ => partners(j0.id) = (
          cols.add(s"wnL_${j0.id}", partner(keys.map(_._1), tr, hasR, lKeyNull)),
          cols.add(s"wnR_${j0.id}", partner(keys.map(_._2), tl, hasL, rKeyNull))))
        Traced(joined, tl.cols ++ tr.cols, cols.add("consistent", cons), cols.add("alive", alive),
          tl.tracked ++ tr.tracked :+ TrackedOp(j0.id, ret))
      })
    }
  }
}
