package repro.core

import org.apache.spark.sql.types.{ArrayType, StructType}
import repro.nrab._
import repro.whynot._

/** The result of schema backtracing (paper §5.1) for one (possibly
  * SA-substituted) query: the missing answer's constraints pushed to the
  * places where the tracer can check them.
  *
  *  - ``tableNips``: one NIP t̄_R per constrained input table — a tuple
  *    pattern over the table's columns (nested constraints become
  *    bag/tuple patterns). Compatibility of a source tuple = it matches
  *    t̄_R.
  *  - ``checks``: per operator, primitive constraints on its output
  *    columns, re-validated where the value is created or restructured.
  *    The operator's type says how: on the promoted scalar columns at a
  *    flatten (the paper's revalidation of compatibles after structure
  *    changes), on the derived value at a projection, and via subset-range
  *    satisfiability at an aggregation (paper §5.4's loose "full
  *    relaxation" bounds).
  */
final case class Placement(
    tableNips: Map[String, NTup],
    checks: Map[Int, Seq[(String, Nip)]]) {

  /** t̄ for ``table`` (empty pattern — matches everything — if unconstrained). */
  def nipFor(table: String): NTup = tableNips.getOrElse(table, NTup(Seq.empty))

  /** Does the subtree rooted at ``op`` carry any why-not constraint? */
  def constrains(op: Op): Boolean = op.allOps.exists {
    case TableAccess(_, n) => tableNips.contains(n)
    case o                 => checks.contains(o.id)
  }
}

object Placement {

  /** Backtrace the why-not tuple ``nip`` (over ``query``'s output schema)
    * into a [[Placement]].
    */
  def backtrace(query: Op, nip: NTup,
                tableSchemas: Map[String, StructType]): Placement = {
    val schemas = Source.schemas(query, tableSchemas)
    val rootSources = schemas(query.id)

    val pathCons  = Seq.newBuilder[(SrcPath, Nip)]
    // constraints on aggregate outputs and projection-derived values
    val valueCons = Seq.newBuilder[(Int, (String, Nip))]

    // ``attr`` names the constrained value (output column, then nested
    // fields) for the error raised when a constraint cannot be placed
    def place(attr: String, src: SourceRef, n: Nip): Unit = {
      def unplaceable(what: String) = throw new IllegalArgumentException(
        s"cannot backtrace why-not constraint $n on $attr: $what ($src)")
      def placeFields(fields: Seq[(String, Nip)]): Unit = src match {
        case SrcNested(_, fs) => fields.foreach { case (fn, s) => place(s"$attr.$fn", fs(fn), s) }
        case p: SrcPath       => fields.foreach { case (fn, s) => place(s"$attr.$fn", p.extend(fn), s) }
        case _                => unplaceable("tuple pattern on an aggregate or derived value")
      }
      n match {
        case NAny => ()
        case prim @ (NConst(_) | NCmp(_, _)) => src match {
          case p: SrcPath              => pathCons += p -> prim
          case SrcAgg(id, out)         => valueCons += id -> (out, prim)
          case SrcDerived(id, out, _)  => valueCons += id -> (out, prim)
          case _: SrcNested            => unplaceable("primitive constraint on a nested value")
        }
        case NTup(fields) => placeFields(fields)
        case NBag(elems, _) => elems.foreach {
          case NTup(fields) => placeFields(fields)
          case NAny => () // existence of an element is witnessed by a consistent row
          case elem => src match {
            case p: SrcPath => pathCons += p -> elem
            case _          => unplaceable("bag element pattern on a value that is not a table path")
          }
        }
      }
    }

    nip.fields.foreach { case (col, sub) =>
      rootSources.get(col) match {
        case Some(src) => place(col, src, sub)
        case None => throw new IllegalArgumentException(
          s"why-not attribute $col not in output schema ${rootSources.keys.toSeq.sorted}")
      }
    }

    val paths = pathCons.result()

    // t̄_R per table: nested pattern trees from the collected path constraints
    val tableNips = paths.groupBy(_._1.table).map { case (t, cs) =>
      t -> buildPattern(tableSchemas(t), cs.map { case (p, n) => (p.path, n) })
    }

    // revalidation checks at flatten operators: the path constraints on
    // the fields each flatten promotes
    val flattenChecks = query.allOps.collect { case f: Flatten =>
      f.id -> Source.promoted(f, schemas(f.in.id)(f.attr), tableSchemas).flatMap { case (o, _) =>
        paths.collect { case (p, n) if schemas(f.id)(o) == p => (o, n) }
      }
    }.filter(_._2.nonEmpty).toMap

    Placement(tableNips,
      flattenChecks ++ valueCons.result().groupMap(_._1)(_._2))
  }

  /** Build a nested NIP pattern for one table from (path, prim) pairs.
    * Scalar columns contribute direct fields; nested segments contribute
    * a struct pattern (a tuple in ``schema``) or an exists-style bag
    * pattern (a relation) — constraints sharing a bag prefix land in the
    * SAME element pattern (a compatible element must satisfy them
    * conjointly, cf. Example 7).
    */
  private[core] def buildPattern(schema: StructType, cons: Seq[(List[String], Nip)]): NTup = {
    def build(st: StructType, level: Seq[(List[String], Nip)]): Seq[(String, Nip)] =
      level.groupBy(_._1.head).toSeq.sortBy(_._1).map { case (seg, cs) =>
        val (leaves, deeper) = cs.partition(_._1.size == 1)
        val leafNips = leaves.map(c => seg -> c._2)
        if (deeper.isEmpty) leafNips
        else {
          val inner = deeper.map { case (p, n) => (p.tail, n) }
          val pat = st.find(_.name == seg).map(_.dataType) match {
            case Some(s: StructType)               => NTup(build(s, inner)): Nip
            case Some(ArrayType(s: StructType, _)) => NBag(Seq(NTup(build(s, inner))), star = true): Nip
            case _ => throw new IllegalArgumentException(s"no nested type at $seg in $st")
          }
          leafNips :+ (seg -> pat)
        }
      }.flatten
    NTup(build(schema, cons))
  }
}
