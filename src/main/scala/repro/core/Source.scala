package repro.core

import org.apache.spark.sql.types.StructType
import repro.nrab._

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
  * maps the element field names to their sources.
  */
final case class SrcNested(opId: Int, fields: Map[String, SourceRef]) extends SourceRef

/** A value computed by an arithmetic projection expression. */
final case class SrcDerived(opId: Int, out: String, inputs: Set[SourceRef]) extends SourceRef

object Source {

  /** Output column -> source, for operator ``op``. ``tableSchemas`` gives
    * each base table's schema, nested element fields included.
    */
  def colSources(op: Op, tableSchemas: Map[String, StructType]): Map[String, SourceRef] =
    op match {
      case TableAccess(_, name) =>
        tableSchemas(name).fieldNames.map(c => c -> SrcPath(name, List(c))).toMap

      case Projection(id, cols, in) =>
        val src = colSources(in, tableSchemas)
        cols.map { c =>
          c.expr match {
            case Attr(n) => c.out -> src(n)
            case e       => c.out -> SrcDerived(id, c.out, e.attrs.map(src))
          }
        }.toMap

      case Renaming(_, renames, in) =>
        val src = colSources(in, tableSchemas)
        renames.map { case (nu, old) => nu -> src(old) }.toMap

      case Selection(_, _, in) => colSources(in, tableSchemas)
      case Dedup(_, in)        => colSources(in, tableSchemas)
      case UnionOp(_, l, _)    => colSources(l, tableSchemas)

      case Join(_, _, _, l, r) =>
        colSources(l, tableSchemas) ++ colSources(r, tableSchemas)

      case f: Flatten =>
        val src = colSources(f.in, tableSchemas)
        (if (f.keepsAttr) src else src - f.attr) ++
          Flattens.aliases(f, tableSchemas).map { case (out, field) =>
            out -> extendSource(src(f.attr), field)
          }

      case NestRel(id, nested, out, in) =>
        val src = colSources(in, tableSchemas)
        (src -- nested) + (out -> SrcNested(id, nested.map(n => n -> src(n)).toMap))

      case NestTup(id, fields, out, in) =>
        val src = colSources(in, tableSchemas)
        (src -- fields.map(_._2)) +
          (out -> SrcNested(id, fields.map { case (o, a) => o -> src(a) }.toMap))

      case Agg(id, groupBy, aggs, in) =>
        val src = colSources(in, tableSchemas)
        groupBy.map { case (o, a) => o -> src(a) }.toMap ++
          aggs.map(a => a.out -> (SrcAgg(id, a.out): SourceRef)).toMap
    }

  private[core] def extendSource(s: SourceRef, field: String): SourceRef = s match {
    case p: SrcPath        => p.extend(field)
    case SrcNested(_, f)   => f(field)
    case other             => other // derived/agg containers are never flattened in scenarios
  }

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
          Flattens.aliases(f, tableSchemas).foreach { case (_, field) =>
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
