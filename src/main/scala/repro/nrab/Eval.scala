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
  * instrumented (tracing) variant lives in [[repro.core.Trace]].
  */
object Eval {

  /** Evaluate ``op`` against ``catalog`` (table name -> DataFrame). */
  def apply(op: Op, catalog: Map[String, DataFrame]): DataFrame = {
    val tableSchemas = catalog.map { case (n, df) => n -> df.schema }
    eval(op, catalog, tableSchemas)
  }

  private def eval(op: Op, catalog: Map[String, DataFrame],
                   tableSchemas: Map[String, StructType]): DataFrame = op match {
    case TableAccess(_, name) =>
      catalog.getOrElse(name, throw new IllegalArgumentException(s"unknown table: $name"))

    case Projection(_, cols, in) =>
      val df = eval(in, catalog, tableSchemas)
      df.select(cols.map(c => c.expr.toColumn(df(_)).as(c.out)): _*)

    case Renaming(_, renames, in) =>
      val df = eval(in, catalog, tableSchemas)
      df.select(renames.map { case (nu, old) => df(old).as(nu) }: _*)

    case Selection(_, pred, in) =>
      val df = eval(in, catalog, tableSchemas)
      df.filter(pred.toColumn(df(_)))

    case Join(_, kind, conds, left, right) =>
      val (l, r) = (eval(left, catalog, tableSchemas), eval(right, catalog, tableSchemas))
      joinDisjoint(l, r, conds, JoinKind.spark(kind))

    case f @ FlattenRel(_, attr, outer, in, _) =>
      val df  = eval(in, catalog, tableSchemas)
      val gen = if (outer) explode_outer(df(attr)) else explode(df(attr))
      val keep = df.columns.toSeq.filterNot(_ == attr).map(df(_))
      val promoted = Flattens.aliases(f, tableSchemas).map {
        case (out, field) => col("__x").getField(field).as(out)
      }
      df.select(keep :+ gen.as("__x"): _*).select(keep ++ promoted: _*)

    case f @ FlattenTup(_, attr, in, _) =>
      // tuple flatten keeps the flattened attribute (paper Table 1: R ∘ τ)
      val df = eval(in, catalog, tableSchemas)
      val keep = df.columns.toSeq.map(df(_))
      val promoted = Flattens.aliases(f, tableSchemas).map {
        case (out, field) => df(attr).getField(field).as(out)
      }
      df.select(keep ++ promoted: _*)

    case NestRel(_, nested, out, in) =>
      val df   = eval(in, catalog, tableSchemas)
      val keys = df.columns.toSeq.filterNot(nested.contains)
      val packed = struct(nested.map(n => df(n).as(n)): _*)
      df.groupBy(keys.map(df(_)): _*)
        .agg(collect_list(packed).as(out))

    case NestTup(_, fields, out, in) =>
      val df   = eval(in, catalog, tableSchemas)
      val attrs = fields.map(_._2)
      val keep = df.columns.toSeq.filterNot(attrs.contains).map(df(_))
      df.select(keep :+ struct(fields.map { case (o, a) => df(a).as(o) }: _*).as(out): _*)

    case Agg(_, groupBy, aggs, in) =>
      val df = eval(in, catalog, tableSchemas)
      val exprs = aggs.map(a => aggColumn(a, df(_)))
      if (groupBy.isEmpty) df.agg(exprs.head, exprs.tail: _*)
      else df.groupBy(groupBy.map { case (o, a) => df(a).as(o) }: _*).agg(exprs.head, exprs.tail: _*)

    case UnionOp(_, l, r) =>
      eval(l, catalog, tableSchemas).unionByName(eval(r, catalog, tableSchemas))

    case Dedup(_, in) =>
      eval(in, catalog, tableSchemas).distinct()
  }

  /** Equi-join requiring disjoint column names across the two inputs (all
    * scenario schemas use prefixed names); keeps both sides' columns.
    */
  def joinDisjoint(l: DataFrame, r: DataFrame, conds: Seq[(String, String)],
                   sparkKind: String): DataFrame = {
    val overlap = l.columns.toSet.intersect(r.columns.toSet)
    require(overlap.isEmpty, s"join inputs must have disjoint columns, overlap: $overlap")
    val cond = conds.map { case (a, b) => l(a) === r(b) }.reduceOption(_ && _).getOrElse(lit(true))
    l.join(r, cond, sparkKind)
  }

  /** Compile one aggregate spec, resolving attributes through ``resolve``. */
  def aggColumn(a: AggSpec, resolve: String => Column): Column =
    a.func.agg(a.expr.map(_.toColumn(resolve))).as(a.out)

  /** Output column names of ``op`` (data-independent schema calculus used
    * by backtracing and schema-alternative pruning).
    */
  def schemaOf(op: Op, tableSchemas: Map[String, StructType]): Seq[String] = op match {
    case TableAccess(_, name) =>
      tableSchemas.getOrElse(name, throw new IllegalArgumentException(s"unknown table: $name"))
        .fieldNames.toSeq
    case Projection(_, cols, _)     => cols.map(_.out)
    case Renaming(_, renames, _)    => renames.map(_._1)
    case Selection(_, _, in)        => schemaOf(in, tableSchemas)
    case Join(_, _, _, l, r)        => schemaOf(l, tableSchemas) ++ schemaOf(r, tableSchemas)
    case f: Flatten =>
      val in = schemaOf(f.in, tableSchemas)
      (if (f.keepsAttr) in else in.filterNot(_ == f.attr)) ++ Flattens.aliases(f, tableSchemas).map(_._1)
    case NestRel(_, nested, out, in) =>
      schemaOf(in, tableSchemas).filterNot(nested.contains) :+ out
    case NestTup(_, fields, out, in) =>
      schemaOf(in, tableSchemas).filterNot(fields.map(_._2).contains) :+ out
    case Agg(_, groupBy, aggs, _)   => groupBy.map(_._1) ++ aggs.map(_.out)
    case UnionOp(_, l, _)           => schemaOf(l, tableSchemas)
    case Dedup(_, in)               => schemaOf(in, tableSchemas)
  }
}

/** The fields a flatten promotes, read from each table's own schema:
  * nested structure is data-independent, so backtracing and SA pruning
  * resolve it without touching data.
  */
object Flattens {

  /** (outputName, elementField) pairs promoted by ``f``: its explicit
    * aliases, else every field of the flattened attribute's nested type
    * under its own name, in schema order.
    */
  def aliases(f: Flatten, tableSchemas: Map[String, StructType]): Seq[(String, String)] =
    f.aliases.getOrElse(fieldsOf(f.in, List(f.attr), tableSchemas).map(x => x -> x))

  /** Fields of the nested value at ``path`` — an output column of ``op``
    * followed by field names below it — traced back to the base table's
    * schema or to the nesting operator that built it.
    */
  private def fieldsOf(op: Op, path: List[String],
                       tableSchemas: Map[String, StructType]): Seq[String] = {
    val attr = path.head
    op match {
      case TableAccess(_, name) =>
        val schema = tableSchemas.getOrElse(name,
          throw new IllegalArgumentException(s"unknown table: $name"))
        def noNested = new IllegalArgumentException(s"no nested type at $name.${path.mkString(".")}")
        val leaf = path.foldLeft(schema: DataType) { (dt, seg) =>
          elementStruct(dt).flatMap(_.find(_.name == seg)).getOrElse(throw noNested).dataType
        }
        elementStruct(leaf).getOrElse(throw noNested).fieldNames.toSeq
      case NestRel(_, nested, out, child) if out == attr =>
        if (path.tail.isEmpty) nested else fieldsOf(child, path.tail, tableSchemas)
      case NestTup(_, fields, out, child) if out == attr =>
        if (path.tail.isEmpty) fields.map(_._1)
        else fieldsOf(child, fields.toMap.getOrElse(path(1), path(1)) :: path.drop(2), tableSchemas)
      case Projection(_, cols, child) =>
        val src = cols.find(_.out == attr).map(_.expr) match {
          case Some(Attr(n)) => n
          case _             => attr
        }
        fieldsOf(child, src :: path.tail, tableSchemas)
      case Renaming(_, renames, child) =>
        val src = renames.find(_._1 == attr).map(_._2).getOrElse(attr)
        fieldsOf(child, src :: path.tail, tableSchemas)
      case Selection(_, _, child)  => fieldsOf(child, path, tableSchemas)
      case Dedup(_, child)         => fieldsOf(child, path, tableSchemas)
      case UnionOp(_, l, _)        => fieldsOf(l, path, tableSchemas)
      case Join(_, _, _, l, r) =>
        fieldsOf(if (Eval.schemaOf(l, tableSchemas).contains(attr)) l else r, path, tableSchemas)
      case f: Flatten =>
        aliases(f, tableSchemas).find(_._1 == attr) match {
          // a promoted field: continue below the flattened attribute
          case Some((_, field)) => fieldsOf(f.in, f.attr :: field :: path.tail, tableSchemas)
          case None if f.attr == attr && !f.keepsAttr =>
            throw new IllegalArgumentException(s"$attr was flattened away by ${f.label}")
          case None => fieldsOf(f.in, path, tableSchemas)
        }
      case other =>
        throw new IllegalArgumentException(s"cannot resolve nested fields of $attr below ${other.label}")
    }
  }

  /** The struct of a tuple-typed value or of a relation's elements. */
  private def elementStruct(dt: DataType): Option[StructType] = dt match {
    case st: StructType                => Some(st)
    case ArrayType(st: StructType, _)  => Some(st)
    case _                             => None
  }
}
