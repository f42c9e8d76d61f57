package repro.nrab

import org.apache.spark.sql.Column
import org.apache.spark.sql.expressions.WindowSpec
import org.apache.spark.sql.functions._

/** An aggregate function of the standard SQL set (the paper's PTIME
  * case). Each case holds its compiled forms, given the aggregated value
  * ``v`` (None only for ``count(*)``):
  *
  *  - ``agg``         the aggregate itself, as [[Eval]] computes it
  *  - ``aliveOver``   its value over the window's rows that survive the
  *                    original pipeline so far (``alive``) — the tracer's
  *                    original-world view, ``agg`` over the window
  *  - ``relaxedOver`` [lo, hi] of the aggregate over arbitrary subsets of
  *                    the window's rows — the loose "full relaxation"
  *                    bounds of paper §5.4
  */
sealed trait AggFunc {
  def agg(v: Option[Column]): Column
  // dead rows are masked to null, which every aggregate skips
  def aliveOver(v: Option[Column], alive: Column, w: WindowSpec): Column =
    agg(Some(when(alive, v.getOrElse(lit(1L))))).over(w)
  def relaxedOver(v: Option[Column], w: WindowSpec): (Column, Column)
}

object AggFunc {

  case object Count extends AggFunc {
    def agg(v: Option[Column]): Column = count(v.getOrElse(lit(1)))
    def relaxedOver(v: Option[Column], w: WindowSpec): (Column, Column) = {
      val unit = v.map(x => when(x.isNotNull, 1L).otherwise(0L)).getOrElse(lit(1L))
      (lit(0L), coalesce(sum(unit).over(w), lit(0L)))
    }
  }

  case object CountDistinct extends AggFunc {
    def agg(v: Option[Column]): Column = countDistinct(v.get)
    // Spark has no distinct window aggregates
    override def aliveOver(v: Option[Column], alive: Column, w: WindowSpec): Column =
      size(collect_set(when(alive, v.get)).over(w)).cast("long")
    def relaxedOver(v: Option[Column], w: WindowSpec): (Column, Column) =
      (lit(0L), size(collect_set(v.get).over(w)).cast("long"))
  }

  /** An aggregate of one value. The avg, min and max of any subset lie
    * within the window's [min, max].
    */
  sealed abstract class OfValue(f: Column => Column) extends AggFunc {
    def agg(v: Option[Column]): Column = f(v.get)
    def relaxedOver(v: Option[Column], w: WindowSpec): (Column, Column) =
      (min(v.get).over(w), max(v.get).over(w))
  }

  /** A subset's sum lies between the sums of the negative and of the
    * positive values.
    */
  case object Sum extends OfValue(c => sum(c)) {
    override def relaxedOver(v: Option[Column], w: WindowSpec): (Column, Column) =
      (coalesce(sum(when(v.get < 0, v.get)).over(w), lit(0.0)),
       coalesce(sum(when(v.get > 0, v.get)).over(w), lit(0.0)))
  }
  case object Avg extends OfValue(c => avg(c))
  case object Min extends OfValue(c => min(c))
  case object Max extends OfValue(c => max(c))
}
