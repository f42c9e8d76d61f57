package repro.core

import org.apache.spark.sql.types.{DataType, StructType}
import repro.nrab._
import scala.collection.immutable.ListMap
import scala.collection.mutable

/** Source provenance of columns — the data-independent half of schema
  * backtracing (paper §5.1). For every operator we compute where each of
  * its output columns originates: a base-table path, an aggregate output,
  * a nested relation built by nesting, or an opaque derived value — for
  * all operators of a query in one walk ([[Source.schemas]]). The
  * mapping M_sbt (operator attribute reference -> source attribute) is
  * [[Source.opRefs]].
  */
sealed trait SourceRef {
  /** Stringified source path where applicable ("table.a.b"), else None. */
  def pathKey: Option[String] = this match {
    case SrcPath(t, p) => Some((t +: p).mkString("."))
    case _             => None
  }
}

/** A path into a base table: table -> column -> nested fields. */
final case class SrcPath(table: String, path: List[String]) extends SourceRef {
  def extend(field: String): SrcPath = SrcPath(table, path :+ field)
}

/** Output of an aggregation operator. */
final case class SrcAgg(opId: Int, out: String) extends SourceRef

/** A nested relation / tuple created by a nesting operator; ``fields``
  * maps the element field names, in field order, to their sources.
  */
final case class SrcNested(opId: Int, fields: ListMap[String, SourceRef]) extends SourceRef

/** A value computed by an arithmetic projection expression. */
final case class SrcDerived(opId: Int, out: String, inputs: Set[SourceRef]) extends SourceRef

object Source {

  /** One operator's output schema: output column -> source, in order. */
  type Schema = ListMap[String, SourceRef]

  /** Every operator's output schema in ``root``'s tree, keyed by operator
    * id, from one bottom-up walk. Explanations are sets of ids, so an id
    * naming two different operators raises `IllegalArgumentException`;
    * identical subtrees (a self-union) share their entries.
    * ``tableSchemas`` gives each base table's schema, nested fields
    * included.
    */
  def schemas(root: Op, tableSchemas: Map[String, StructType]): Map[Int, Schema] = {
    val seen = mutable.Map.empty[Int, (Op, Schema)]
    def visit(op: Op): Unit = if (!seen.get(op.id).exists(_._1 == op)) {
      op.children.foreach(visit)
      seen.get(op.id).foreach { case (other, _) => throw new IllegalArgumentException(
        s"operator id ${op.id} names two different operators: ${other.label} and ${op.label}") }
      seen(op.id) = op -> schemaOf(op, c => seen(c.id)._2, tableSchemas)
    }
    visit(root)
    seen.view.mapValues(_._2).toMap
  }

  /** ``op``'s output schema: [[schemas]] read at the root. */
  def colSources(op: Op, tableSchemas: Map[String, StructType]): Schema =
    schemas(op, tableSchemas)(op.id)

  /** ``op``'s output schema from its inputs' schemas ``in`` (paper
    * Table 1). This is the one per-operator schema rule; output names,
    * provenance and nested fields all derive from it.
    */
  def schemaOf(op: Op, in: Op => Schema, tableSchemas: Map[String, StructType]): Schema = {
    lazy val src = in(op.children.head)
    op match {
      case TableAccess(_, name) =>
        ListMap.from(table(name, tableSchemas).fieldNames.map(c => c -> SrcPath(name, List(c))))

      case Projection(id, cols, _) =>
        ListMap.from(cols.map { c =>
          c.expr match {
            case Attr(n) => c.out -> src(n)
            case e       => c.out -> SrcDerived(id, c.out, e.attrs.map(src))
          }
        })

      case Renaming(_, renames, _) => ListMap.from(renames.map { case (nu, old) => nu -> src(old) })

      case _: Selection | _: Dedup | _: UnionOp => src

      case Join(_, _, _, l, r) =>
        val (ls, rs) = (in(l), in(r))
        Eval.requireDisjoint(ls.keys, rs.keys)
        ls ++ rs

      case f: Flatten =>
        val attrSrc = src(f.attr)
        (if (f.keepsAttr) src else src - f.attr) ++
          promoted(f, attrSrc, tableSchemas).map { case (out, field) =>
            out -> extendSource(attrSrc, field)
          }

      case NestRel(id, nested, out, _) =>
        (src -- nested) + (out -> SrcNested(id, ListMap.from(nested.map(n => n -> src(n)))))

      case NestTup(id, fields, out, _) =>
        (src -- fields.map(_._2)) +
          (out -> SrcNested(id, ListMap.from(fields.map { case (o, a) => o -> src(a) })))

      case Agg(id, groupBy, aggs, _) =>
        ListMap.from(groupBy.map { case (o, a) => o -> src(a) } ++
          aggs.map(a => a.out -> SrcAgg(id, a.out)))
    }
  }

  /** (outputName, elementField) pairs promoted by ``f`` whose attribute
    * has source ``attrSrc``: the explicit aliases, else every field of the
    * attribute's nested type under its own name, in field order.
    * ``attrSrc`` is only resolved when ``f`` has no aliases.
    */
  def promoted(f: Flatten, attrSrc: => SourceRef,
               tableSchemas: Map[String, StructType]): Seq[(String, String)] =
    f.aliases.getOrElse(fieldsOf(attrSrc, tableSchemas).map(x => x -> x))

  /** Field names, in field order, of the nested value at ``ref``: the
    * element struct at a base-table path, or the fields a nesting built.
    */
  def fieldsOf(ref: SourceRef, tableSchemas: Map[String, StructType]): Seq[String] = ref match {
    case SrcPath(t, path) =>
      val leaf = path.foldLeft(table(t, tableSchemas): DataType) { (dt, seg) =>
        Eval.elementStruct(dt).flatMap(_.find(_.name == seg)).getOrElse(throw noNested(ref)).dataType
      }
      Eval.elementStruct(leaf).getOrElse(throw noNested(ref)).fieldNames.toSeq
    case SrcNested(_, fields) => fields.keys.toSeq
    case other                => throw noNested(other)
  }

  private[core] def extendSource(s: SourceRef, field: String): SourceRef = s match {
    case p: SrcPath      => p.extend(field)
    case SrcNested(_, f) => f(field)
    case other           => throw noNested(other)
  }

  private def noNested(ref: SourceRef) =
    new IllegalArgumentException(s"no nested type at ${ref.pathKey.getOrElse(ref)}")

  private def table(name: String, tableSchemas: Map[String, StructType]): StructType =
    tableSchemas.getOrElse(name, throw new IllegalArgumentException(s"unknown table: $name"))

  /** M_sbt: attribute references of every operator resolved to sources,
    * as (opId, source) pairs, operators in pre-order. Flatten aliases
    * resolve each consumed element field; join conditions resolve per side.
    */
  def opRefs(root: Op, tableSchemas: Map[String, StructType]): Seq[(Int, SourceRef)] = {
    val schema = schemas(root, tableSchemas)
    def src(in: Op)(a: String) = schema(in.id)(a)
    root.allOps.flatMap { op =>
      (op match {
        case Projection(_, cols, in)   => cols.flatMap(_.expr.attrs).map(src(in))
        case Selection(_, pred, in)    => pred.attrs.toSeq.map(src(in))
        case Join(_, _, conds, l, r)   => conds.flatMap { case (a, b) => Seq(src(l)(a), src(r)(b)) }
        case f: Flatten =>
          val s = src(f.in)(f.attr)
          s +: promoted(f, s, tableSchemas).map { case (_, field) => extendSource(s, field) }
        case NestRel(_, nested, _, in) => nested.map(src(in))
        case NestTup(_, fields, _, in) => fields.map(f => src(in)(f._2))
        case Agg(_, groupBy, aggs, in) => (groupBy.map(_._2) ++ aggs.flatMap(_.attrs)).map(src(in))
        case Renaming(_, renames, in)  => renames.map(r => src(in)(r._2))
        case _                         => Seq.empty
      }).map(op.id -> _)
    }
  }
}
