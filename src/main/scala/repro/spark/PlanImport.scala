package repro.spark

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.{Alias, And => CAnd, Attribute, AttributeReference, Contains => CContains, EqualTo, Expression => CExpr, ExplodeBase, GetStructField, GreaterThan, GreaterThanOrEqual, IsNotNull => CIsNotNull, IsNull => CIsNull, LessThan, LessThanOrEqual, Literal, Not => CNot, Or => COr}
import org.apache.spark.sql.catalyst.expressions.{Add, Divide, Multiply, Subtract}
import org.apache.spark.sql.catalyst.expressions.aggregate.{AggregateExpression, Average, Count, Max, Min, Sum}
import org.apache.spark.sql.catalyst.plans.logical
import org.apache.spark.sql.catalyst.plans.{FullOuter, Inner, LeftOuter, RightOuter}
import org.apache.spark.sql.types.{ArrayType, StructType}
import org.apache.spark.unsafe.types.UTF8String
import repro.nrab._

/** Lifts a restricted Spark ``LogicalPlan`` into the NRAB AST so the
  * why-not analysis runs as a Catalyst-level pass over queries written
  * with the plain DataFrame API (DESIGN.md §5).
  *
  * Supported plan nodes: SubqueryAlias over a leaf (temp view ->
  * TableAccess), Project (keeps, renames, +,-,*,/ derived columns),
  * Filter, equi-Join (inner/left/right/full), Aggregate (count/sum/avg/
  * min/max and count(DISTINCT x), optionally over arithmetic),
  * Generate+Explode of an array-of-struct column (-> relation flatten; the
  * struct-field accesses of the enclosing Project become the promoted
  * columns), Distinct and Union. Anything else — including other DISTINCT
  * aggregates and FILTER clauses — raises ``UnsupportedPlanException``.
  * Nested structure needs no import: the analysis reads it from the
  * tables' own schemas.
  */
object PlanImport {

  final class UnsupportedPlanException(msg: String) extends RuntimeException(msg)

  /** Import the analyzed plan of ``df``. Returns the NRAB query and the
    * table names it references (resolve them to DataFrames yourself —
    * typically the temp views used to build ``df``).
    */
  def apply(df: DataFrame): Op = {
    val counter = new java.util.concurrent.atomic.AtomicInteger(1000)
    val (op, _) = importPlan(df.queryExecution.analyzed, counter)
    op
  }

  /** exprId -> NRAB column name environment. */
  private type Env = Map[Long, String]

  private def importPlan(plan: logical.LogicalPlan,
                         ids: java.util.concurrent.atomic.AtomicInteger): (Op, Env) =
    plan match {
      // a temp view maps to a table access even when its definition
      // contains renaming projections (toDF(...) inserts one)
      case logical.SubqueryAlias(ident, v: logical.View) =>
        (TableAccess(ids.getAndIncrement(), ident.name),
          v.output.map(a => a.exprId.id -> a.name).toMap)

      case logical.SubqueryAlias(ident, child) =>
        leafOutput(child) match {
          case Some(output) =>
            (TableAccess(ids.getAndIncrement(), ident.name),
              output.map(a => a.exprId.id -> a.name).toMap)
          case None => importPlan(child, ids)
        }

      case v: logical.View => importPlan(v.child, ids)

      case logical.Filter(cond, child) =>
        val (in, env) = importPlan(child, ids)
        (Selection(ids.getAndIncrement(), importPred(cond, env), in), env)

      case logical.Project(projectList, child) =>
        val (in, env) = importPlan(child, ids)
        val cols = projectList.flatMap {
          case a: AttributeReference =>
            env(a.exprId.id) match {
              // passing a generator struct through: expand to its promoted
              // columns (the struct has no NRAB column at this point)
              case gen if gen.startsWith("__gen:") =>
                ProjCol.keep(gen.stripPrefix("__gen:").split(',').toIndexedSeq: _*)
              case n => Seq(ProjCol(n, Attr(n)))
            }
          case Alias(e, name) => Seq(ProjCol(name, importExpr(e, env)))
          case other => throw new UnsupportedPlanException(s"projection item: $other")
        }
        val env2 = projectList.map(ne => ne.exprId.id -> colName(ne, env)).toMap
        (Projection(ids.getAndIncrement(), cols, in), env2)

      case logical.Join(l, r, joinType, cond, _) =>
        val (lo, le) = importPlan(l, ids)
        val (ro, re) = importPlan(r, ids)
        val kind = joinType match {
          case Inner      => JoinKind.Inner
          case LeftOuter  => JoinKind.Left
          case RightOuter => JoinKind.Right
          case FullOuter  => JoinKind.Full
          case other      => throw new UnsupportedPlanException(s"join type: $other")
        }
        val conds = cond.map(equiConds(_, le, re)).getOrElse(
          throw new UnsupportedPlanException("join without condition"))
        (Join(ids.getAndIncrement(), kind, conds, lo, ro), le ++ re)

      case logical.Aggregate(groupingExprs, aggExprs, child, _) =>
        val (in, env) = importPlan(child, ids)
        val keys = groupingExprs.map {
          case a: AttributeReference => env(a.exprId.id) -> env(a.exprId.id)
          case other => throw new UnsupportedPlanException(s"group key: $other")
        }
        val keyIds = groupingExprs.collect { case a: AttributeReference => a.exprId.id }.toSet
        val aggs = aggExprs.flatMap {
          case a: AttributeReference if keyIds.contains(a.exprId.id) => None
          case Alias(AggregateExpression(_, _, _, Some(filter), _), name) =>
            throw new UnsupportedPlanException(s"aggregate $name with FILTER ($filter)")
          case Alias(AggregateExpression(fn, _, isDistinct, None, _), name) =>
            val (func, arg) = (fn, isDistinct) match {
              case (Count(Seq(e)), true)          => (AggFunc.CountDistinct, Some(importExpr(e, env)))
              case (other, true) => throw new UnsupportedPlanException(s"distinct aggregate: $other")
              case (Count(Seq(Literal(_, _))), _) => (AggFunc.Count, None)
              case (Count(Seq(e)), _)             => (AggFunc.Count, Some(importExpr(e, env)))
              case (Sum(e, _), _)                 => (AggFunc.Sum, Some(importExpr(e, env)))
              case (Average(e, _), _)             => (AggFunc.Avg, Some(importExpr(e, env)))
              case (Min(e), _)                    => (AggFunc.Min, Some(importExpr(e, env)))
              case (Max(e), _)                    => (AggFunc.Max, Some(importExpr(e, env)))
              case (other, _) => throw new UnsupportedPlanException(s"aggregate: $other")
            }
            Some(AggSpec(func, arg, name))
          case other => throw new UnsupportedPlanException(s"aggregate item: $other")
        }
        val env2 = aggExprs.map(ne => ne.exprId.id -> colName(ne, env)).toMap
        (Agg(ids.getAndIncrement(), keys, aggs, in), env2)

      case g: logical.Generate =>
        val (in, env) = importPlan(g.child, ids)
        val (arrExpr, outer) = g.generator match {
          case e: ExplodeBase => (e.child, g.outer)
          case other => throw new UnsupportedPlanException(s"generator: $other")
        }
        val attr = arrExpr match {
          case a: AttributeReference => env(a.exprId.id)
          case other => throw new UnsupportedPlanException(s"exploded expression: $other")
        }
        val fields = arrExpr.dataType match {
          case ArrayType(st: StructType, _) => st.fieldNames.toSeq
          case other => throw new UnsupportedPlanException(s"exploded type: $other")
        }
        val flat = FlattenRel(ids.getAndIncrement(), attr, outer, in,
          aliases = Some(fields.map(f => f -> f)))
        // the generator's output struct attribute: struct-field accesses on
        // it resolve to the promoted columns (see structFieldName)
        val structId = g.generatorOutput.head.exprId.id
        (flat, env + (structId -> s"__gen:${fields.mkString(",")}"))

      case logical.Distinct(child) =>
        val (in, env) = importPlan(child, ids)
        (Dedup(ids.getAndIncrement(), in), env)

      case logical.Union(children, _, _) =>
        val imported = children.map(importPlan(_, ids))
        (imported.map(_._1).reduceLeft((a, b) => UnionOp(ids.getAndIncrement(), a, b)),
          imported.head._2)

      case other =>
        throw new UnsupportedPlanException(s"plan node: ${other.getClass.getSimpleName}")
    }

  /** Output attributes of a view-or-leaf subtree, None if it computes. */
  private def leafOutput(p: logical.LogicalPlan): Option[Seq[Attribute]] = p match {
    case v: logical.View            => leafOutput(v.child)
    case sa: logical.SubqueryAlias  => leafOutput(sa.child)
    case l if l.children.isEmpty    => Some(l.output)
    case _                          => None
  }

  private def colName(ne: org.apache.spark.sql.catalyst.expressions.NamedExpression,
                      env: Env): String = ne match {
    case a: AttributeReference => env.getOrElse(a.exprId.id, a.name)
    case Alias(_, name)        => name
    case other                 => other.name
  }

  private[spark] def importExpr(e: CExpr, env: Env): Expr = e match {
    case a: AttributeReference => Attr(resolveAttr(a, env))
    case g: GetStructField     => Attr(structFieldName(g, env))
    case Literal(v, _)         => Lit(fromCatalyst(v))
    case Multiply(l, r, _)     => Arith("*", importExpr(l, env), importExpr(r, env))
    case Divide(l, r, _)       => Arith("/", importExpr(l, env), importExpr(r, env))
    case Add(l, r, _)          => Arith("+", importExpr(l, env), importExpr(r, env))
    case Subtract(l, r, _)     => Arith("-", importExpr(l, env), importExpr(r, env))
    case c if c.getClass.getSimpleName == "Cast" => importExpr(c.children.head, env)
    case other => throw new UnsupportedPlanException(s"expression: $other")
  }

  /** A struct-field access on a generator output resolves to the promoted
    * column of the imported flatten.
    */
  private def structFieldName(g: GetStructField, env: Env): String = g.child match {
    case a: AttributeReference =>
      val bound = env.getOrElse(a.exprId.id, a.name)
      if (bound.startsWith("__gen:")) g.extractFieldName else bound + "." + g.extractFieldName
    case _ => throw new UnsupportedPlanException(s"struct access: $g")
  }

  private def resolveAttr(a: AttributeReference, env: Env): String =
    env.getOrElse(a.exprId.id, a.name)

  private[spark] def importPred(e: CExpr, env: Env): Pred = e match {
    case EqualTo(l, r)            => Cmp("=", importExpr(l, env), importExpr(r, env))
    case GreaterThan(l, r)        => Cmp(">", importExpr(l, env), importExpr(r, env))
    case GreaterThanOrEqual(l, r) => Cmp(">=", importExpr(l, env), importExpr(r, env))
    case LessThan(l, r)           => Cmp("<", importExpr(l, env), importExpr(r, env))
    case LessThanOrEqual(l, r)    => Cmp("<=", importExpr(l, env), importExpr(r, env))
    case CAnd(l, r)               => And(importPred(l, env), importPred(r, env))
    case COr(l, r)                => Or(importPred(l, env), importPred(r, env))
    case CNot(EqualTo(l, r))      => Cmp("!=", importExpr(l, env), importExpr(r, env))
    case CNot(p)                  => Not(importPred(p, env))
    case CContains(l, Literal(v, _)) => Contains(importExpr(l, env), v.toString)
    case CIsNotNull(c)            => IsNotNull(importExpr(c, env))
    case CIsNull(c)               => IsNull(importExpr(c, env))
    case other => throw new UnsupportedPlanException(s"predicate: $other")
  }

  private def equiConds(cond: CExpr, le: Env, re: Env): Seq[(String, String)] = cond match {
    case CAnd(l, r) => equiConds(l, le, re) ++ equiConds(r, le, re)
    case EqualTo(a: AttributeReference, b: AttributeReference) =>
      if (le.contains(a.exprId.id) && re.contains(b.exprId.id))
        Seq(le(a.exprId.id) -> re(b.exprId.id))
      else if (le.contains(b.exprId.id) && re.contains(a.exprId.id))
        Seq(le(b.exprId.id) -> re(a.exprId.id))
      else throw new UnsupportedPlanException(s"join condition sides: $cond")
    case other => throw new UnsupportedPlanException(s"non-equi join condition: $other")
  }

  private def fromCatalyst(v: Any): Any = v match {
    case s: UTF8String          => s.toString
    case d: org.apache.spark.sql.types.Decimal => d.toDouble
    case other                  => other
  }
}
