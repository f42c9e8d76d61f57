package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}

/** The paper's running example (Figure 1a): a person table with two
  * nested address relations. Used as golden test vectors for the tracing
  * annotations (Figures 4–7) and explanations (Examples 9/10/19).
  */
object Person {
  final case class Addr(city: String, year: Int)
  final case class PersonRow(name: String, address1: Seq[Addr], address2: Seq[Addr])

  val rows: Seq[PersonRow] = Seq(
    PersonRow("Peter",
      address1 = Seq(Addr("NY", 2010), Addr("LA", 2019), Addr("LV", 2017)),
      address2 = Seq(Addr("LA", 2010), Addr("SF", 2018))),
    PersonRow("Sue",
      address1 = Seq(Addr("LA", 2019), Addr("NY", 2018)),
      address2 = Seq(Addr("LA", 2019), Addr("NY", 2018)))
  )

  /** The person table. */
  def table(spark: SparkSession): DataFrame = {
    import spark.implicits._
    rows.toDS().toDF()
  }
}
