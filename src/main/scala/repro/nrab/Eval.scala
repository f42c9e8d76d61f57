package repro.nrab

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{ArrayType, DataType, StructType}

/** Evaluates an NRAB operator tree with its *original* semantics on Spark.
  *
  * Every operator compiles to DataFrame / Catalyst transformations
  * (explode for flatten, groupBy + collect_list for relation nesting,
  * struct for tuple nesting, …). Used to run scenario queries, to define
  * gold-standard results, and to compute side-effect estimates; the
  * instrumented (tracing) variant lives in [[repro.core.Trace]]. Nested
  * fields come from each input DataFrame's own type, so Eval is an
  * independent reference for the schema calculus in [[repro.core.Source]].
  */
object Eval {

  /** Evaluate ``op`` against ``catalog`` (table name -> DataFrame). */
  def apply(op: Op, catalog: Map[String, DataFrame]): DataFrame = op match {
    case TableAccess(_, name) =>
      catalog.getOrElse(name, throw new IllegalArgumentException(s"unknown table: $name"))

    case Projection(_, cols, in) =>
      val df = Eval(in, catalog)
      df.select(cols.map(c => c.expr.toColumn(df(_)).as(c.out)): _*)

    case Renaming(_, renames, in) =>
      val df = Eval(in, catalog)
      df.select(renames.map { case (nu, old) => df(old).as(nu) }: _*)

    case Selection(_, pred, in) =>
      val df = Eval(in, catalog)
      df.filter(pred.toColumn(df(_)))

    case Join(_, kind, conds, left, right) =>
      val (l, r) = (Eval(left, catalog), Eval(right, catalog))
      requireDisjoint(l.columns, r.columns)
      val cond = conds.map { case (a, b) => l(a) === r(b) }.reduceOption(_ && _).getOrElse(lit(true))
      l.join(r, cond, JoinKind.spark(kind))

    case f @ FlattenRel(_, attr, outer, in, _) =>
      val df  = Eval(in, catalog)
      val gen = if (outer) explode_outer(df(attr)) else explode(df(attr))
      val keep = df.columns.toSeq.filterNot(_ == attr).map(df(_))
      val promoted = promotedFields(f, df).map {
        case (out, field) => col("__x").getField(field).as(out)
      }
      df.select(keep :+ gen.as("__x"): _*).select(keep ++ promoted: _*)

    case f @ FlattenTup(_, attr, in, _) =>
      // tuple flatten keeps the flattened attribute (paper Table 1: R ∘ τ)
      val df = Eval(in, catalog)
      val keep = df.columns.toSeq.map(df(_))
      val promoted = promotedFields(f, df).map {
        case (out, field) => df(attr).getField(field).as(out)
      }
      df.select(keep ++ promoted: _*)

    case NestRel(_, nested, out, in) =>
      val df   = Eval(in, catalog)
      val keys = df.columns.toSeq.filterNot(nested.contains)
      val packed = struct(nested.map(n => df(n).as(n)): _*)
      df.groupBy(keys.map(df(_)): _*)
        .agg(collect_list(packed).as(out))

    case NestTup(_, fields, out, in) =>
      val df   = Eval(in, catalog)
      val attrs = fields.map(_._2)
      val keep = df.columns.toSeq.filterNot(attrs.contains).map(df(_))
      df.select(keep :+ struct(fields.map { case (o, a) => df(a).as(o) }: _*).as(out): _*)

    case Agg(_, groupBy, aggs, in) =>
      val df = Eval(in, catalog)
      val exprs = aggs.map(a => aggColumn(a, df(_)))
      if (groupBy.isEmpty) df.agg(exprs.head, exprs.tail: _*)
      else df.groupBy(groupBy.map { case (o, a) => df(a).as(o) }: _*).agg(exprs.head, exprs.tail: _*)

    case UnionOp(_, l, r) =>
      Eval(l, catalog).unionByName(Eval(r, catalog))

    case Dedup(_, in) =>
      Eval(in, catalog).distinct()
  }

  /** (outputName, elementField) pairs promoted by ``f`` over its input
    * ``df``: the explicit aliases, else every field of the attribute's
    * element struct in ``df``'s own type, under its own name.
    */
  private def promotedFields(f: Flatten, df: DataFrame): Seq[(String, String)] =
    f.aliases.getOrElse {
      val dt = df.schema(f.attr).dataType
      elementStruct(dt).getOrElse(throw new IllegalArgumentException(
        s"no nested type at ${f.attr} (${dt.simpleString}) under ${f.label}"))
        .fieldNames.toSeq.map(x => x -> x)
    }

  /** The struct of a tuple-typed value or of a relation's elements. */
  def elementStruct(dt: DataType): Option[StructType] = dt match {
    case st: StructType               => Some(st)
    case ArrayType(st: StructType, _) => Some(st)
    case _                            => None
  }

  /** Rejects join inputs that share a column name: a join keeps both
    * sides' columns, and all scenario schemas use prefixed names.
    */
  def requireDisjoint(l: Iterable[String], r: Iterable[String]): Unit = {
    val overlap = l.toSet.intersect(r.toSet)
    require(overlap.isEmpty, s"join inputs must have disjoint columns, overlap: $overlap")
  }

  /** Compile one aggregate spec, resolving attributes through ``resolve``. */
  def aggColumn(a: AggSpec, resolve: String => Column): Column =
    a.func.agg(a.expr.map(_.toColumn(resolve))).as(a.out)
}
