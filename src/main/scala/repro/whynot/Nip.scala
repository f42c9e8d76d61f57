package repro.whynot

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._

/** Nested instances with placeholders (NIPs, paper Def. 3), extended with
  * comparison constraints — the paper's own TPC-H why-not tuples (Table 9)
  * constrain aggregates with ``> 0``, ``< 11000`` etc.
  *
  *  - [[NAny]]    — the instance placeholder ``?``
  *  - [[NConst]]  — a fully specified primitive value
  *  - [[NCmp]]    — a comparison constraint on a primitive value
  *  - [[NTup]]    — a tuple pattern (one sub-NIP per attribute)
  *  - [[NBag]]    — a bag pattern; ``star`` adds the multiplicity
  *                  placeholder ``*`` (0 or more unconstrained tuples)
  */
sealed trait Nip {
  /** Def. 4 matching of a concrete (local) instance against this NIP.
    * Instances are primitives, ``Seq[(String, Any)]`` for tuples, and
    * ``Seq[Any]`` for bags (duplicates as repeats).
    */
  def matches(instance: Any): Boolean = (this, instance) match {
    case (NAny, _)            => true
    case (NConst(v), x)       => Nip.primEq(v, x)
    case (NCmp(op, v), x)     => Nip.primCmp(op, x, v)
    case (NTup(fields), inst: Seq[_]) =>
      val m = inst.collect { case (k: String, v) => k -> v }.toMap
      fields.forall { case (name, sub) => m.contains(name) && sub.matches(m(name)) }
    case (b: NBag, inst: Seq[_]) => Nip.bagMatch(inst.asInstanceOf[Seq[Any]], b)
    case _                    => false
  }
}

case object NAny extends Nip
final case class NConst(value: Any) extends Nip
/** ``value op c`` constraint with op in =, !=, >, >=, <, <=; any other
  * ``op`` is rejected on construction.
  */
final case class NCmp(op: String, c: Any) extends Nip {
  if (!Nip.CmpOps.contains(op)) throw new IllegalArgumentException(
    s"unknown comparison operator '$op' in why-not constraint (expected one of ${Nip.CmpOps.mkString(" ")})")
}
final case class NTup(fields: Seq[(String, Nip)]) extends Nip
final case class NBag(elems: Seq[Nip], star: Boolean) extends Nip

object Nip {
  private[whynot] val CmpOps = Seq("=", "!=", ">", ">=", "<", "<=")
  /** ⟨a: v, b: ?⟩ builder. */
  def tup(fields: (String, Nip)*): NTup = NTup(fields)
  /** {{e1, …, en, *}} builder. */
  def bagStar(elems: Nip*): NBag = NBag(elems, star = true)
  def bag(elems: Nip*): NBag = NBag(elems, star = false)

  private[whynot] def primEq(a: Any, b: Any): Boolean = (a, b) match {
    case (x: Number, y: Number) => x.doubleValue == y.doubleValue
    case _                      => a == b
  }

  private[whynot] def primCmp(op: String, x: Any, c: Any): Boolean = (x, c) match {
    case (a: Number, b: Number) =>
      val (u, v) = (a.doubleValue, b.doubleValue)
      op match {
        case "="  => u == v;  case "!=" => u != v
        case ">"  => u > v;   case ">=" => u >= v
        case "<"  => u < v;   case "<=" => u <= v
      }
    case (a: String, b: String) =>
      val d = a.compareTo(b)
      op match {
        case "="  => d == 0;  case "!=" => d != 0
        case ">"  => d > 0;   case ">=" => d >= 0
        case "<"  => d < 0;   case "<=" => d <= 0
      }
    case _ => false
  }

  /** Bag matching with multiplicities (Def. 4 condition 4): find an
    * assignment M from instance elements to pattern elements such that
    * every instance element is assigned (4b), every non-`*` pattern
    * element is used exactly once (4c), and each pair is element-equal or
    * the pattern is ? / * (4a). Solved by backtracking — why-not bags are
    * small (Example 6 shows why the assignment must respect counts).
    */
  private[whynot] def bagMatch(inst: Seq[Any], pattern: NBag): Boolean = {
    def go(rest: List[Any], unused: List[Nip]): Boolean = rest match {
      case Nil => unused.isEmpty // all non-* patterns must be consumed (4c)
      case x :: xs =>
        val viaPattern = unused.zipWithIndex.exists { case (p, i) =>
          p.matches(x) && go(xs, unused.patch(i, Nil, 1))
        }
        viaPattern || (pattern.star && go(xs, unused))
    }
    go(inst.toList, pattern.elems.toList)
  }

  /** Compile a *tuple-level* NIP into a Catalyst predicate over the columns
    * of a DataFrame whose rows are candidate matches. Bag-typed fields must
    * have the backtraced shape ``{{elem, *}}`` (exists) or ``?``/``{{*}}``
    * (unconstrained) — the only shapes schema backtracing produces; a bag
    * without ``*`` raises IllegalArgumentException.
    */
  def toColumn(nip: NTup, resolve: String => Column): Column =
    nip.fields.map { case (name, sub) => fieldColumn(resolve(name), sub) }
      .reduceOption(_ && _).getOrElse(lit(true))

  private def fieldColumn(c: Column, nip: Nip): Column = nip match {
    case NTup(fields) =>
      fields.map { case (n, sub) => fieldColumn(c.getField(n), sub) }
        .reduceOption(_ && _).getOrElse(lit(true))
    case NBag(elems, true) =>
      // {{e1, …, en, *}}: each pattern element must match some array element.
      elems.map {
        case NAny => size(c) > 0
        case e    => exists(c, x => fieldColumn(x, e))
      }.reduceOption(_ && _).getOrElse(lit(true))
    case prim => primColumn(prim, c)
  }

  /** A primitive constraint (``?``, a constant or a comparison) as a
    * predicate on the value in ``c``.
    */
  def primColumn(nip: Nip, c: Column): Column = nip match {
    case NAny        => lit(true)
    case NConst(v)   => c === lit(v)
    case NCmp(op, v) => op match {
      case "="  => c === lit(v);  case "!=" => c =!= lit(v)
      case ">"  => c > lit(v);    case ">=" => c >= lit(v)
      case "<"  => c < lit(v);    case "<=" => c <= lit(v)
    }
    case other => throw new IllegalArgumentException(s"non-primitive constraint: $other")
  }

  /** Is primitive constraint ``nip`` satisfiable by some value in
    * [``lo``, ``hi``]? Used for aggregate consistency under "full
    * relaxation" (paper §5.4's loose-bounds model).
    */
  def satisfiable(nip: Nip, lo: Column, hi: Column): Column = nip match {
    case NAny        => lit(true)
    case NConst(x)   => lo <= lit(x) && lit(x) <= hi
    case NCmp(op, x) => op match {
      case "="  => lo <= lit(x) && lit(x) <= hi
      case "!=" => !(lo === lit(x) && hi === lit(x))
      case ">"  => hi > lit(x);  case ">=" => hi >= lit(x)
      case "<"  => lo < lit(x);  case "<=" => lo <= lit(x)
    }
    case other => throw new IllegalArgumentException(s"non-primitive constraint: $other")
  }
}
