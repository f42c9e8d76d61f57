package repro.nrab

/** The nested relational algebra for bags (NRAB, paper Table 1) as an AST.
  *
  * Every operator carries a stable integer ``id`` so that explanations —
  * sets of operator identifiers — survive reparameterization (paper §4.2:
  * "an operator op in Q retains its identifier in Q'"). ``label`` renders
  * the paper's notation, e.g. ``σ27`` or ``F^I 11``.
  */
sealed trait Op {
  def id: Int

  /** Child operators (inputs). */
  def children: Seq[Op] = this match {
    case _: TableAccess            => Seq.empty
    case o: Projection             => Seq(o.in)
    case o: Renaming               => Seq(o.in)
    case o: Selection              => Seq(o.in)
    case o: Join                   => Seq(o.left, o.right)
    case o: Flatten                => Seq(o.in)
    case o: NestRel                => Seq(o.in)
    case o: NestTup                => Seq(o.in)
    case o: Agg                    => Seq(o.in)
    case o: UnionOp                => Seq(o.l, o.r)
    case o: Dedup                  => Seq(o.in)
  }

  /** Operator symbol in the paper's notation. */
  def symbol: String = this match {
    case _: TableAccess => "R"
    case _: Projection  => "π"
    case _: Renaming    => "ρ"
    case _: Selection   => "σ"
    case j: Join        => j.kind match {
      case JoinKind.Inner => "⋈"
      case JoinKind.Left  => "⟕"
      case JoinKind.Right => "⟖"
      case JoinKind.Full  => "⟗"
    }
    case f: FlattenRel  => if (f.outer) "F^O" else "F^I"
    case _: FlattenTup  => "F^T"
    case _: NestRel     => "N^R"
    case _: NestTup     => "N^T"
    case _: Agg         => "γ"
    case _: UnionOp     => "∪"
    case _: Dedup       => "δ"
  }

  def label: String = s"$symbol$id"

  /** All operators of the subtree, root first (top-down pipeline order). */
  def allOps: Seq[Op] = this +: children.flatMap(_.allOps)

  def find(opId: Int): Option[Op] = allOps.find(_.id == opId)
}

object JoinKind extends Enumeration {
  type JoinKind = Value
  val Inner, Left, Right, Full = Value

  /** Spark join-type string. */
  def spark(k: JoinKind): String = k match {
    case Inner => "inner"
    case Left  => "left_outer"
    case Right => "right_outer"
    case Full  => "full_outer"
  }
}

/** One output column of a projection: ``out <- expr``. A plain column keep
  * is ``ProjCol("a", Attr("a"))``; renames and derived (map-style) columns
  * use the same shape, matching the paper's π extended with the derived
  * columns its TPC-H scenarios use (e.g. disc_price).
  */
final case class ProjCol(out: String, expr: Expr)

object ProjCol {
  def keep(names: String*): Seq[ProjCol] = names.map(n => ProjCol(n, Attr(n)))
}

/** One aggregate of an aggregation operator: ``out <- func(expr)``.
  * ``expr`` is None for ``count(*)``; it may be arithmetic, e.g. Q3's
  * ``sum(l_extendedprice * (1 - l_discount)) -> revenue``.
  */
final case class AggSpec(func: AggFunc, expr: Option[Expr], out: String) {
  /** Attribute references of the aggregated expression. */
  def attrs: Set[String] = expr.map(_.attrs).getOrElse(Set.empty)
}

object AggSpec {
  def apply(func: AggFunc, attr: String, out: String): AggSpec =
    AggSpec(func, Some(Attr(attr)), out)
  def countStar(out: String): AggSpec = AggSpec(AggFunc.Count, None, out)
}

/** Base-table scan. */
final case class TableAccess(id: Int, name: String) extends Op

/** Projection with optional renames / derived columns (paper π + map-style
  * restructuring limited to projection, the algorithm's PTIME restriction).
  */
final case class Projection(id: Int, cols: Seq[ProjCol], in: Op) extends Op

/** Attribute renaming ρ. ``renames`` maps new name <- old name for every
  * output attribute (attributes not listed are dropped, mirroring ρ's
  * full-schema signature in the paper).
  */
final case class Renaming(id: Int, renames: Seq[(String, String)], in: Op) extends Op

/** Selection σ_θ. */
final case class Selection(id: Int, pred: Pred, in: Op) extends Op

/** Equi-join variants (inner / left / right / full outer). ``conds`` pairs
  * a left attribute with a right attribute; the paper's heuristic algorithm
  * restricts itself to equi-joins (§5.5 (i)).
  */
final case class Join(id: Int, kind: JoinKind.JoinKind,
                      conds: Seq[(String, String)], left: Op, right: Op) extends Op

/** A flatten: promotes the fields of nested attribute ``attr`` to top
  * level. ``aliases`` pins the promoted output names: (outputName,
  * elementField). None promotes every field of the attribute's nested
  * type under its own name, in schema order. Explicit aliases keep the
  * query's output schema stable when a schema alternative swaps the
  * flattened attribute for one with differently named fields.
  */
sealed trait Flatten extends Op {
  def attr: String
  def in: Op
  def aliases: Option[Seq[(String, String)]]

  /** Whether the flattened attribute stays in the output. */
  def keepsAttr: Boolean

  /** The same flatten with new parameters (a schema alternative's rewrite). */
  def withParams(attr: String, in: Op, aliases: Option[Seq[(String, String)]]): Flatten
}

/** Relation flatten F^I / F^O over an attribute of nested-relation type
  * (array of struct). The flattened attribute itself is dropped from the
  * output (scenario queries never reference it afterwards, and keeping a
  * duplicate array column would break Spark nesting/grouping downstream).
  */
final case class FlattenRel(id: Int, attr: String, outer: Boolean, in: Op,
                            aliases: Option[Seq[(String, String)]] = None) extends Flatten {
  def keepsAttr: Boolean = false
  def withParams(attr: String, in: Op, aliases: Option[Seq[(String, String)]]): Flatten =
    copy(attr = attr, in = in, aliases = aliases)
}

/** Tuple flatten F^T over an attribute of tuple (struct) type; it keeps
  * the flattened attribute (paper Table 1: R ∘ τ).
  */
final case class FlattenTup(id: Int, attr: String, in: Op,
                            aliases: Option[Seq[(String, String)]] = None) extends Flatten {
  def keepsAttr: Boolean = true
  def withParams(attr: String, in: Op, aliases: Option[Seq[(String, String)]]): Flatten =
    copy(attr = attr, in = in, aliases = aliases)
}

/** Relation nesting N^R_{A->C}: group on sch(R)-A, collect A-tuples into a
  * fresh nested relation attribute ``out``.
  */
final case class NestRel(id: Int, nested: Seq[String], out: String, in: Op) extends Op

/** Tuple nesting N^T_{A->C}: pack attributes A into a fresh struct ``out``
  * with fields (outField, attr) — output field names stay fixed under
  * schema alternatives that swap the nested attributes (e.g. paper D3's
  * author -> editor).
  */
final case class NestTup(id: Int, fields: Seq[(String, String)], out: String, in: Op) extends Op

/** SQL-style grouped aggregation (see DESIGN.md: the paper's evaluation
  * queries use this form; §5 restricts to standard SQL aggregates).
  * Empty ``groupBy`` is a global aggregate. Keys are (outName, attr) pairs
  * so output names survive schema alternatives (paper Q4's γ30).
  */
final case class Agg(id: Int, groupBy: Seq[(String, String)], aggs: Seq[AggSpec], in: Op) extends Op

object Agg {
  def keys(names: String*): Seq[(String, String)] = names.map(n => n -> n)
}

/** Additive bag union. */
final case class UnionOp(id: Int, l: Op, r: Op) extends Op

/** Duplicate elimination δ. */
final case class Dedup(id: Int, in: Op) extends Op
