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
  *  - ``cols``       algebra column name -> physical column; none for a
  *                   nesting output ([[SrcNested]] in [[Source.schemas]])
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
    tracked: Seq[TrackedOp]) {
  def resolve(name: String): Column =
    col(cols.getOrElse(name, throw new IllegalArgumentException(
      s"unresolvable attribute $name (have ${cols.keys.toSeq.sorted.mkString(", ")})")))
}

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

    /** ``keep`` plus the (name hint, expression) pairs ``cols`` in one
      * select over ``df``; an expression several lanes compute becomes one
      * column. Returns the physical column of each expression.
      */
    private def emit(df: DataFrame, cols: Seq[(String, Column)],
                     keep: Seq[Column] = Seq(col("*"))): (DataFrame, Map[Column, String]) = {
      val named = mutable.LinkedHashMap.empty[Column, String]
      cols.foreach { case (hint, c) => named.getOrElseUpdate(c, fresh(hint)) }
      (if (named.isEmpty) df else df.select(keep ++ named.map { case (c, pc) => c.as(pc) }: _*), named.toMap)
    }

    /** The one physical column all lanes resolve ``what`` of ``op`` to. */
    private def shared(op: Op, what: String, physical: Seq[String]): String =
      if (physical.distinct.size == 1) physical.head
      else throw new RowGrainMismatch(
        s"traced queries resolve the $what of ${op.label} to different columns (${physical.distinct.mkString(", ")})")

    /** Lane ``t``'s consistency flag conjoined with ``checks`` (null-safe);
      * None when there is nothing to check.
      */
    private def checked(t: Traced, checks: Seq[Column]): Option[Column] =
      checks.reduceOption(_ && _).map(c => col(t.consistent) && bool(c))

    /** Trace ``ops`` — the same operator of every lane's query. */
    def go(ops: Seq[Op]): Seq[Traced] = {
      val op = ops.head
      if (ops.exists(o => o.id != op.id || o.getClass != op.getClass))
        throw new IllegalArgumentException(
          s"traced queries differ in shape at ${ops.map(_.label).distinct.mkString(", ")}")
      op match {
        case TableAccess(_, name) => table(name)
        case _: Selection  => selection(ops.collect { case s: Selection => s })
        case _: Projection => projection(ops.collect { case p: Projection => p })
        case _: Renaming =>
          val rs = ops.collect { case r: Renaming => r }
          go(rs.map(_.in)).zip(rs).zip(lanes).map { case ((t, r), l) =>
            t.copy(cols = r.renames.collect { case (nu, old) if !l.nested(r.in, old) => nu -> t.cols(old) }.toMap)
          }
        case _: Flatten    => flatten(ops.collect { case f: Flatten => f })
        case _: Join       => join(ops.collect { case j: Join => j })
        case _: Agg        => agg(ops.collect { case a: Agg => a })
        // Nesting keeps row grain in the tracer: the group members stay
        // visible, their element constraints already pushed to them by
        // backtracing. The nesting output has no physical column: only
        // projections, renamings and joins pass it through (see Lane).
        case _: NestRel | _: NestTup | _: Dedup => go(ops.flatMap(_.children))
        case u: UnionOp =>
          throw new UnsupportedTraceInput(u.label, "the row-grain tracer does not trace through a union")
      }
    }

    private def table(name: String): Seq[Traced] = {
      val src = catalog(name)
      val colMap = src.columns.map(c => c -> fresh(c)).toMap
      val cons = lanes.map(l => bool(Nip.toColumn(l.placement.nipFor(name), c => src(c))))
      val compatible = lineage.map(_.get(name).map(p => bool(p.toColumn(src(_)))).getOrElse(cons.head))
      val (df, pc) = emit(src,
        cons.map("consistent" -> _) ++ Seq("alive" -> lit(true)) ++ compatible.map(s"compat_$name" -> _),
        keep = src.columns.toSeq.map(c => src(c).as(colMap(c))))
      compatible.foreach(c => compat(name) = pc(c))
      cons.map(c => Traced(df, colMap, pc(c), pc(lit(true)), Seq.empty))
    }

    private def selection(ss: Seq[Selection]): Seq[Traced] = {
      val in = go(ss.map(_.in))
      val id = ss.head.id
      val rets = in.zip(ss).map { case (t, s) => bool(s.pred.toColumn(t.resolve)) }
      val alives = in.zip(rets).map { case (t, ret) => col(t.alive) && ret }
      val (df, pc) = emit(in.head.df, rets.map(s"ret_$id" -> _) ++ alives.map("alive" -> _))
      in.indices.map { k =>
        in(k).copy(df = df, alive = pc(alives(k)), tracked = in(k).tracked :+ TrackedOp(id, pc(rets(k))))
      }
    }

    private def projection(ps: Seq[Projection]): Seq[Traced] = {
      val in = go(ps.map(_.in))
      // per lane: kept columns (physical), derived expressions and the
      // revalidated consistency; nesting outputs pass through untouched
      val perLane = in.zip(ps).zip(lanes).map { case ((t, p), l) =>
        val kept = p.cols.collect { case ProjCol(o, Attr(a)) if !l.nested(p.in, a) => o -> t.cols(a) }
        val derived = p.cols.filterNot(_.expr.isInstanceOf[Attr]).map(c => c.out -> c.expr.toColumn(t.resolve))
        val value = kept.map { case (o, pc) => o -> col(pc) }.toMap ++ derived
        val checks = l.placement.checks.getOrElse(p.id, Seq.empty).map { case (o, n) => Nip.primColumn(n, value(o)) }
        (kept, derived, checked(t, checks))
      }
      val (df, pc) = emit(in.head.df, perLane.flatMap { case (_, derived, cons) =>
        derived ++ cons.map("consistent" -> _)
      })
      in.zip(perLane).map { case (t, (kept, derived, cons)) =>
        t.copy(df = df, cols = (kept ++ derived.map { case (o, c) => o -> pc(c) }).toMap,
          consistent = cons.map(pc).getOrElse(t.consistent))
      }
    }

    private def flatten(fs: Seq[Flatten]): Seq[Traced] = {
      val in = go(fs.map(_.in))
      val f0 = fs.head
      // a relation flatten explodes the (shared) attribute into an element
      // column; a tuple flatten reads each lane's attribute directly
      val attrs = in.zip(fs).zip(lanes).map { case ((t, f), l) => l.read(t, f, f.in, f.attr, "flattened attribute") }
      val (df0, elems) = f0 match {
        case _: FlattenRel =>
          val attr = shared(f0, "flattened attribute", attrs)
          val x = fresh("x")
          (in.head.df.select(col("*"), explode_outer(col(attr)).as(x)), fs.map(_ => col(x)))
        case _: FlattenTup => (in.head.df, attrs.map(col))
      }
      // only an inner flatten can drop rows, so only it records a retained flag
      val ret = f0 match {
        case FlattenRel(_, _, false, _, _) => Some(elems.head.isNotNull)
        case _                             => None
      }
      val perLane = in.zip(fs).zip(elems).zip(lanes).map { case (((t, f), elem), l) =>
        val promoted = Source.promoted(f, l.schemas(f.in.id)(f.attr), ts)
          .map { case (o, field) => o -> elem.getField(field) }
        val checks = l.placement.checks.getOrElse(f.id, Seq.empty)
          .map { case (o, nip) => Nip.primColumn(nip, promoted.toMap.apply(o)) }
        (promoted, ret.map(col(t.alive) && _), checked(t, checks))
      }
      val (df, pc) = emit(df0, ret.map(s"ret_${f0.id}" -> _).toSeq ++ perLane.flatMap { case (promoted, alive, cons) =>
        promoted ++ alive.map("alive" -> _) ++ cons.map("consistent" -> _)
      })
      in.zip(fs).zip(perLane).map { case ((t, f), (promoted, alive, cons)) =>
        t.copy(df = df,
          cols = (if (f.keepsAttr) t.cols else t.cols - f.attr) ++ promoted.map { case (o, c) => o -> pc(c) },
          alive = alive.map(pc).getOrElse(t.alive),
          tracked = t.tracked ++ ret.map(r => TrackedOp(f.id, pc(r))),
          consistent = cons.map(pc).getOrElse(t.consistent))
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
      def side(df: DataFrame, hint: String): (DataFrame, String) = {
        val (d, pc) = emit(df, Seq(s"p$hint" -> lit(1)))
        (d, pc(lit(1)))
      }
      val (ldf, pl) = side(ls.head.df, "L")
      val (rdf, pr) = side(rs.head.df, "R")
      val cond = keys.map { case (a, b) => ldf(a) === rdf(b) }.reduceOption(_ && _).getOrElse(lit(true))
      val joined = ldf.join(rdf, cond, "full_outer")

      val hasL = col(pl).isNotNull; val hasR = col(pr).isNotNull
      val lKeyNull = keys.map { case (a, _) => col(a).isNull }.reduceOption(_ || _).getOrElse(lit(false))
      val rKeyNull = keys.map { case (_, b) => col(b).isNull }.reduceOption(_ || _).getOrElse(lit(false))
      // retained under the *original* join type, evaluated on the traced
      // (relaxed) inputs; rows padded because an upstream operator punched
      // a hole (null keys from padding) are not this join's fault.
      val baseRet = j0.kind match {
        case JoinKind.Inner => hasL && hasR
        case JoinKind.Left  => hasL
        case JoinKind.Right => hasR
        case JoinKind.Full  => lit(true)
      }
      val ret = baseRet || (hasL && lKeyNull) || (hasR && rKeyNull)

      val perLane = ls.zip(rs).zip(js).zip(lanes).map { case (((tl, tr), j), l) =>
        // original-world survival of a pairing: both sides alive and matched
        val alive = bool(col(tl.alive)) && bool(col(tr.alive)) && hasL && hasR
        val cons = coalesce(col(tl.consistent), lit(!l.placement.constrains(j.left))) &&
          coalesce(col(tr.consistent), lit(!l.placement.constrains(j.right)))
        // original-world partner existence per lineage side (baselines): in
        // an equi-join every row with key k has the same partners
        def partner(key: Seq[String], other: Traced, otherHere: Column, keyNull: Column) =
          (max(when(otherHere && bool(col(other.alive)), 1).otherwise(0))
            .over(Window.partitionBy(key.map(col): _*)) === 1) || keyNull
        val sides = lineage.map(_ =>
          (partner(keys.map(_._1), tr, hasR, lKeyNull), partner(keys.map(_._2), tl, hasL, rKeyNull)))
        (tl, tr, alive, cons, sides)
      }
      val (df, pc) = emit(joined, (s"ret_${j0.id}" -> ret) +: perLane.flatMap { case (_, _, alive, cons, sides) =>
        Seq("alive" -> alive, "consistent" -> cons) ++
          sides.toSeq.flatMap { case (wl, wr) => Seq(s"wnL_${j0.id}" -> wl, s"wnR_${j0.id}" -> wr) }
      })
      perLane.map { case (tl, tr, alive, cons, sides) =>
        sides.foreach { case (wl, wr) => partners(j0.id) = (pc(wl), pc(wr)) }
        Traced(df, tl.cols ++ tr.cols, pc(cons), pc(alive), tl.tracked ++ tr.tracked :+ TrackedOp(j0.id, pc(ret)))
      }
    }

    private def agg(as: Seq[Agg]): Seq[Traced] = {
      val in = go(as.map(_.in))
      val perLane = in.zip(as).zip(lanes).map { case ((t, a), l) =>
        val keys = a.groupBy.map { case (o, k) => o -> l.read(t, a, a.in, k, "group-by key") }
        val w = if (keys.isEmpty) Window.partitionBy(lit(1)) else Window.partitionBy(keys.map(k => col(k._2)): _*)
        def value(spec: AggSpec) = spec.expr.map(_.toColumn(t.resolve))
        // each aggregate's value in the ORIGINAL pipeline
        val outs = a.aggs.map(spec => spec.out -> spec.func.aliveOver(value(spec), col(t.alive), w))
        // aggregate-constraint satisfiability under full relaxation
        val checks = l.placement.checks.getOrElse(a.id, Seq.empty).map { case (out, prim) =>
          val spec = a.aggs.find(_.out == out).getOrElse(
            throw new IllegalArgumentException(s"agg constraint on unknown output $out"))
          val (lo, hi) = spec.func.relaxedOver(value(spec), w)
          Nip.satisfiable(prim, lo, hi)
        }
        (keys, outs, checked(t, checks))
      }
      val (df, pc) = emit(in.head.df, perLane.flatMap { case (_, outs, cons) => outs ++ cons.map("consistent" -> _) })
      in.zip(perLane).map { case (t, (keys, outs, cons)) =>
        t.copy(df = df,
          cols = keys.toMap ++ outs.map { case (o, c) => o -> pc(c) },
          consistent = cons.map(pc).getOrElse(t.consistent))
      }
    }
  }
}
