package repro.core

import org.apache.spark.sql.types.StructType
import repro.nrab._
import scala.collection.mutable

/** A group of interchangeable source attributes (paper §5.2: attribute
  * alternatives are an *input* to the algorithm — provided by hand or by
  * schema matching). ``members`` are full source paths ("table.col",
  * "table.nestedAttr", or "table.attr.field"). For nested-attribute
  * members whose element fields differ in name, ``fieldLists`` aligns the
  * fields positionally across members (fieldLists(i)(k) corresponds to
  * fieldLists(j)(k)).
  */
final case class AltGroup(members: Seq[String], fieldLists: Seq[Seq[String]] = Seq.empty)

/** One schema alternative: a consistent substitution of source attributes
  * applied to the whole query (paper Fig. 3 after pruning). ``sr`` is the
  * partial successful reparameterization the SA itself implies — the ids
  * of operators whose parameters textually changed.
  */
final case class SchemaAlternative(index: Int, query: Op, sr: Set[Int],
                                   assignment: Map[String, String]) {
  def isOriginal: Boolean = assignment.forall { case (k, v) => k == v }
}

private final class PruneSa(msg: String) extends RuntimeException(msg)

object SchemaAlts {

  /** Enumerate all schema alternatives of ``query`` given the alternative
    * groups, pruning substitutions that reference inaccessible attributes
    * or alter the output schema (paper §5.2). The original query is always
    * SA 1 (index 0).
    */
  def enumerate(query: Op, groups: Seq[AltGroup],
                tableSchemas: Map[String, StructType]): Seq[SchemaAlternative] = {
    val refKeys: Set[String] =
      Source.opRefs(query, tableSchemas).flatMap(_._2.pathKey).toSet

    // per group: injective assignments from the referenced members
    val perGroup: Seq[Seq[Map[String, String]]] = groups.map { g =>
      val referenced = g.members.filter(refKeys.contains)
      if (referenced.isEmpty) Seq(Map.empty[String, String])
      else injectiveAssignments(referenced, g.members)
    }

    val combos = perGroup.foldLeft(Seq(Map.empty[String, String])) { (acc, opts) =>
      for (a <- acc; o <- opts) yield a ++ o
    }

    val schemas = Source.schemas(query, tableSchemas)
    val origSchema = schemas(query.id).keys.toSeq
    val lookup = mkLookup(groups) _

    val sas = combos.flatMap { assign =>
      try {
        val (q2, changed, schema) = substitute(query, lookup(assign), schemas, tableSchemas)
        if (schema.keys.toSeq == origSchema) Some(SchemaAlternative(0, q2, changed, assign))
        else None
      } catch { case _: PruneSa => None }
    }

    // original first, then by number of changed ops for stable indexing
    sas.sortBy(sa => (!sa.isOriginal, sa.sr.size, sa.assignment.toSeq.sorted.mkString))
      .zipWithIndex.map { case (sa, i) => sa.copy(index = i) }
  }

  private def injectiveAssignments(referenced: Seq[String],
                                   members: Seq[String]): Seq[Map[String, String]] = {
    def go(rest: List[String], used: Set[String]): Seq[Map[String, String]] = rest match {
      case Nil => Seq(Map.empty)
      case r :: tail =>
        members.filterNot(used).flatMap { m =>
          go(tail, used + m).map(_ + (r -> m))
        }
    }
    go(referenced.toList, Set.empty)
  }

  /** Build the source-path translation for one assignment: exact member
    * hits translate directly; paths *below* a member translate their
    * suffix (via the group's field alignment when field names differ).
    */
  private def mkLookup(groups: Seq[AltGroup])(assign: Map[String, String])(p: SrcPath): SrcPath = {
    val key = p.pathKey.get
    assign.get(key).map(parsePath).getOrElse {
      // prefix rule: member m is a proper prefix of key
      assign.collectFirst {
        case (from, to) if key.startsWith(from + ".") && from != to =>
          val suffix = key.drop(from.length + 1)
          val g = groups.find(_.members.contains(from)).get
          val translated =
            if (g.fieldLists.isEmpty) suffix
            else {
              val fi = g.members.indexOf(from)
              val ti = g.members.indexOf(to)
              val parts = suffix.split('.')
              val k = g.fieldLists(fi).indexOf(parts.head)
              if (k < 0) suffix
              else (g.fieldLists(ti)(k) +: parts.tail).mkString(".")
            }
          parsePath(s"$to.$translated")
      }.getOrElse(p)
    }
  }

  private def parsePath(s: String): SrcPath = {
    val parts = s.split('.').toList
    SrcPath(parts.head, parts.tail)
  }

  /** Rewrite ``op`` under the source-path translation ``lookup``, given
    * ``op``'s [[Source.schemas]] table; returns the substituted tree, the
    * ids of operators whose parameters changed (the SA's implied partial
    * SR) and the substituted tree's output schema. Throws [[PruneSa]] when
    * a translated reference is not accessible at its operator.
    */
  def substitute(op: Op, lookup: SrcPath => SrcPath, schemas: Map[Int, Source.Schema],
                 tableSchemas: Map[String, StructType]): (Op, Set[Int], Source.Schema) = {
    val changed = Set.newBuilder[Int]
    // the substituted operators' schemas, recorded as they are built
    val substituted = mutable.Map.empty[Int, Source.Schema]

    def rename(a: String, s0: Map[String, SourceRef], s1: Map[String, SourceRef]): String =
      s0.get(a) match {
        case Some(p: SrcPath) =>
          val target = lookup(p)
          if (target == p && s1.get(a).contains(p)) a
          else s1.collectFirst { case (n, q) if q == target => n }
            .getOrElse(throw new PruneSa(s"no column for ${target.pathKey.get} at $a"))
        case _ =>
          // non-path sources (agg outputs, derived, nested) keep their name
          if (s1.contains(a)) a else throw new PruneSa(s"column $a lost under substitution")
      }

    def go(o: Op): Op = {
      // the single input's schemas before and after substitution
      lazy val (c0, c1, in2) = ctx(o.children.head)
      def ren(a: String) = rename(a, c0, c1)
      val o2 = o match {
        case t: TableAccess => t

        case Projection(id, cols, _) =>
          // A projection that passes BOTH sides of a swap through needs no
          // rewriting — the swap is realized at the downstream operator that
          // actually consumes the attribute (paper D3: the nesting, not the
          // projection, is the explanation).
          def coveredElsewhere(self: ProjCol, target: SourceRef): Boolean =
            cols.exists(c2 => c2 != self && (c2.expr match {
              case Attr(m) => c0.get(m).contains(target)
              case _       => false
            }))
          val cols2 = cols.map { c =>
            c.expr match {
              case Attr(n) =>
                val skip = c0.get(n) match {
                  case Some(p: SrcPath) =>
                    val t = lookup(p); t != p && coveredElsewhere(c, t)
                  case _ => false
                }
                if (skip) c else c.copy(expr = Attr(ren(n)))
              case e => c.copy(expr = e.mapAttrs(ren))
            }
          }
          mark(id, cols2 != cols); Projection(id, cols2, in2)

        case Renaming(id, renames, _) =>
          val rs2 = renames.map { case (nu, old) => nu -> ren(old) }
          mark(id, rs2 != renames); Renaming(id, rs2, in2)

        case Selection(id, pred, _) =>
          val p2 = pred.mapAttrs(ren)
          mark(id, p2 != pred); Selection(id, p2, in2)

        case Join(id, kind, conds, l, r) =>
          val (l0, l1, l2) = ctx(l); val (r0, r1, r2) = ctx(r)
          val conds2 = conds.map { case (a, b) => rename(a, l0, l1) -> rename(b, r0, r1) }
          mark(id, conds2 != conds); Join(id, kind, conds2, l2, r2)

        case f: Flatten =>
          val aliases = Source.promoted(f, c0(f.attr), tableSchemas)
          val (attr2, al2) = flattenSubst(f.attr, aliases, c0, c1)
          mark(f.id, attr2 != f.attr || al2 != aliases)
          f.withParams(attr2, in2, Some(al2))

        case NestRel(id, nested, out, _) =>
          val n2 = nested.map(ren)
          mark(id, n2 != nested); NestRel(id, n2, out, in2)

        case NestTup(id, fields, out, _) =>
          val f2 = fields.map { case (o, a) => o -> ren(a) }
          mark(id, f2 != fields); NestTup(id, f2, out, in2)

        case Agg(id, groupBy, aggs, _) =>
          val g2 = groupBy.map { case (o, a) => o -> ren(a) }
          val a2 = aggs.map(s => s.copy(expr = s.expr.map(_.mapAttrs(ren))))
          mark(id, g2 != groupBy || a2 != aggs); Agg(id, g2, a2, in2)

        case UnionOp(id, l, r) => UnionOp(id, go(l), go(r))
        case Dedup(id, in)     => Dedup(id, go(in))
      }
      substituted(o2.id) = Source.schemaOf(o2, c => substituted(c.id), tableSchemas)
      o2
    }

    /** Substitute a flatten's attribute + aliases: the attribute follows
      * the lookup; each alias keeps its output name and remaps its source
      * field through the translated path. When the attribute itself is
      * unchanged and the swap target field is ALSO promoted by this
      * flatten (e.g. l_discount/l_tax, both fields of the flattened
      * lineitems), the flatten is left untouched — the swap then rewrites
      * the downstream references instead, so the flatten does not wrongly
      * enter the SR (paper Q6: the SR is {π31, σ33}, not the flatten).
      */
    def flattenSubst(attr: String, aliases: Seq[(String, String)],
                     s0: Map[String, SourceRef], s1: Map[String, SourceRef])
                    : (String, Seq[(String, String)]) = {
      val attr2 = rename(attr, s0, s1)
      val attrSrc0 = s0(attr)
      val attrTarget = attrSrc0 match {
        case p: SrcPath => Some(lookup(p))
        case _          => None
      }
      val srcFields = aliases.map(_._2).toSet
      val al2 = aliases.map { case (out, field) =>
        Source.extendSource(attrSrc0, field) match {
          case p: SrcPath =>
            val t = lookup(p)
            val underAttr = attrTarget.exists(at =>
              t.table == at.table && t.path.size == at.path.size + 1 && t.path.init == at.path)
            if (t == p) out -> field
            // target also promoted by this flatten: the swap rewrites the
            // downstream references, not the flatten
            else if (attr2 == attr && srcFields.contains(t.path.last)) out -> field
            // target lives under the (substituted) attribute: remap field
            else if (underAttr) out -> t.path.last
            // target lives elsewhere (cross-level alternative): downstream
            // references handle it; the flatten keeps its alias
            else out -> field
          case _ => out -> field
        }
      }
      (attr2, al2)
    }

    def ctx(in: Op): (Map[String, SourceRef], Map[String, SourceRef], Op) = {
      val in2 = go(in)
      (schemas(in.id), substituted(in2.id), in2)
    }

    def mark(id: Int, isChanged: Boolean): Unit = if (isChanged) changed += id

    val out = go(op)
    (out, changed.result(), substituted(out.id))
  }
}
