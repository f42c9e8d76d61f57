package repro.core

import org.apache.spark.sql.types.{DataType, StructType}
import repro.nrab._
import scala.collection.immutable.ListMap

/** Source provenance of columns — the data-independent half of schema
  * backtracing (paper §5.1). For every operator we compute where each of
  * its output columns originates: a base-table path, an aggregate output,
  * a nested relation built by nesting, or an opaque derived value. The
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

  /** Output column -> source for operator ``op``, in output-column order:
    * the keys are ``op``'s output schema (paper Table 1). This is the one
    * per-operator schema rule; output names, provenance and nested fields
    * all derive from it. ``tableSchemas`` gives each base table's schema,
    * nested element fields included.
    */
  def colSources(op: Op, tableSchemas: Map[String, StructType]): ListMap[String, SourceRef] =
    op match {
      case TableAccess(_, name) =>
        ListMap.from(table(name, tableSchemas).fieldNames.map(c => c -> SrcPath(name, List(c))))

      case Projection(id, cols, in) =>
        val src = colSources(in, tableSchemas)
        ListMap.from(cols.map { c =>
          c.expr match {
            case Attr(n) => c.out -> src(n)
            case e       => c.out -> SrcDerived(id, c.out, e.attrs.map(src))
          }
        })

      case Renaming(_, renames, in) =>
        val src = colSources(in, tableSchemas)
        ListMap.from(renames.map { case (nu, old) => nu -> src(old) })

      case Selection(_, _, in) => colSources(in, tableSchemas)
      case Dedup(_, in)        => colSources(in, tableSchemas)
      case UnionOp(_, l, _)    => colSources(l, tableSchemas)

      case Join(_, _, _, l, r) =>
        val (ls, rs) = (colSources(l, tableSchemas), colSources(r, tableSchemas))
        Eval.requireDisjoint(ls.keys, rs.keys)
        ls ++ rs

      case f: Flatten =>
        val src = colSources(f.in, tableSchemas)
        val attrSrc = src(f.attr)
        (if (f.keepsAttr) src else src - f.attr) ++
          promoted(f, attrSrc, tableSchemas).map { case (out, field) =>
            out -> extendSource(attrSrc, field)
          }

      case NestRel(id, nested, out, in) =>
        val src = colSources(in, tableSchemas)
        (src -- nested) + (out -> SrcNested(id, ListMap.from(nested.map(n => n -> src(n)))))

      case NestTup(id, fields, out, in) =>
        val src = colSources(in, tableSchemas)
        (src -- fields.map(_._2)) +
          (out -> SrcNested(id, ListMap.from(fields.map { case (o, a) => o -> src(a) })))

      case Agg(id, groupBy, aggs, in) =>
        val src = colSources(in, tableSchemas)
        ListMap.from(groupBy.map { case (o, a) => o -> src(a) } ++
          aggs.map(a => a.out -> SrcAgg(id, a.out)))
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
    * as (opId, source) pairs. Flatten aliases resolve each consumed
    * element field; join conditions resolve per side.
    */
  def opRefs(root: Op, tableSchemas: Map[String, StructType]): Seq[(Int, SourceRef)] = {
    val out = Seq.newBuilder[(Int, SourceRef)]
    def visit(op: Op): Unit = {
      op.children.foreach(visit)
      def src(child: Op) = colSources(child, tableSchemas)
      op match {
        case Projection(id, cols, in) =>
          val s = src(in); cols.foreach(c => c.expr.attrs.foreach(a => out += id -> s(a)))
        case Selection(id, pred, in) =>
          val s = src(in); pred.attrs.foreach(a => out += id -> s(a))
        case Join(id, _, conds, l, r) =>
          val (ls, rs) = (src(l), src(r))
          conds.foreach { case (a, b) => out += id -> ls(a); out += id -> rs(b) }
        case f: Flatten =>
          val s = src(f.in); out += f.id -> s(f.attr)
          promoted(f, s(f.attr), tableSchemas).foreach { case (_, field) =>
            out += f.id -> extendSource(s(f.attr), field)
          }
        case NestRel(id, nested, _, in) =>
          val s = src(in); nested.foreach(n => out += id -> s(n))
        case NestTup(id, fields, _, in) =>
          val s = src(in); fields.foreach { case (_, a) => out += id -> s(a) }
        case Agg(id, groupBy, aggs, in) =>
          val s = src(in)
          groupBy.foreach { case (_, a) => out += id -> s(a) }
          aggs.foreach(a => a.attrs.foreach(n => out += id -> s(n)))
        case Renaming(id, renames, in) =>
          val s = src(in); renames.foreach { case (_, old) => out += id -> s(old) }
        case _ => ()
      }
    }
    visit(root)
    out.result()
  }
}
