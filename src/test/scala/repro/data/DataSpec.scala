package repro.data

import org.apache.spark.sql.types.{ArrayType, DataType, StructType}
import repro.{SparkSpec, SynthData}
import repro.core.Source
import repro.nrab._

/** Sanity checks for the synthetic data generators (DESIGN.md §4):
  * determinism, planted witnesses, the nested types of their schemas.
  */
class DataSpec extends SparkSpec {

  test("NestedTpch is deterministic in (nOrders, seed)") {
    val a = NestedTpch(spark, nOrders = 500, seed = 3)
    val b = NestedTpch(spark, nOrders = 500, seed = 3)
    assert(a.lineitem.collect().toSeq == b.lineitem.collect().toSeq)
    assert(a.orders.count() == b.orders.count())
  }

  test("NestedTpch plants the Q3 order with the commitdate window") {
    val d = NestedTpch(spark, nOrders = 500)
    val li = d.lineitem.filter(s"l_orderkey = ${NestedTpch.Q3OrderKey}").collect()
    assert(li.nonEmpty)
    assert(li.forall { r =>
      val c = r.getAs[String]("l_commitdate")
      c > "1995-03-15" && c <= "1995-03-25"
    })
  }

  test("NestedTpch plants customer 61402 with returnflag R lineitems only") {
    val d = NestedTpch(spark, nOrders = 500)
    val keys = d.orders.filter(s"o_custkey = ${NestedTpch.Q10CustKey}")
      .select("o_orderkey").collect().map(_.getLong(0))
    assert(keys.length == 3)
    val flags = d.lineitem.filter(s"l_orderkey in (${keys.mkString(",")})")
      .select("l_returnflag").collect().map(_.getString(0)).toSet
    assert(flags == Set("R"))
  }

  test("every order has at least one lineitem (real-TPC-H invariant)") {
    val d = NestedTpch(spark, nOrders = 500)
    import org.apache.spark.sql.functions.size
    assert(d.nestedOrders.filter(size(org.apache.spark.sql.functions.col("o_lineitems")) === 0)
      .count() == 0)
  }

  test("customerNested keeps order-less customers with empty arrays") {
    val d = NestedTpch(spark, nOrders = 500)
    import org.apache.spark.sql.functions.{col, size}
    assert(d.customerNested.filter(size(col("c_orders")) === 0).count() > 0)
  }

  test("Dblp plants Alice Smith with 6 all-null-bibtex articles") {
    val t = Dblp.tables(spark)
    val alice = t("records").filter("author = 'Alice Smith'").collect()
    assert(alice.length == 6)
    assert(alice.forall(_.getStruct(alice.head.fieldIndex("title")).isNullAt(1)))
  }

  test("Dblp bibtex is null for the vast majority of records (>99% in the paper)") {
    val t = Dblp.tables(spark, nRecords = 1200)
    val total = t("records").count().toDouble
    val withBibtex = t("records").filter("title.bibtex is not null").count().toDouble
    assert(withBibtex / total < 0.02)
  }

  test("Twitter plants the T_ASD retweets and never quotes status 777") {
    val t = Twitter.tables(spark)
    assert(t("tweets").filter(s"retweeted_status.sid = ${Twitter.AsdStatusId}").count() == 2)
    assert(t("tweets").filter(s"quoted_status.sid = ${Twitter.AsdStatusId}").count() == 0)
  }

  test("Crime keeps Roger's and Conedera's looks unique to the planted sightings") {
    val t = Crime.tables(spark)
    // roger-look + Ashishbakshi's second sighting (both reported by zack)
    assert(t("sightings").filter("s_hair = 'brown' and s_clothes = 'jacket'").count() == 2)
    assert(t("sightings").filter("s_hair = 'red' and s_clothes = 'coat'").count() == 2)
    assert(t("sightings").filter("s_hair = 'brown' and s_clothes = 'jacket'")
      .filter("s_witness <> 'zack'").count() == 0)
  }

  test("table schemas carry the scenarios' nested attributes, fields in order") {
    val tables = NestedTpch(spark, nOrders = 100).catalog ++ Twitter.tables(spark, nTweets = 10) ++
      Dblp.tables(spark, nRecords = 10) + ("person" -> Person.table(spark))
    val ts = tables.map { case (n, df) => n -> df.schema }
    val li = NestedTpch.lineitemFields.filterNot(_ == "l_orderkey")
    val venue = Seq("vname", "vyear"); val status = Seq("sid", "stext", "scount")
    // (table, path to the nested attribute, relation (else tuple), its fields)
    val expected = Seq(
      ("person", "address1", true, Seq("city", "year")),
      ("person", "address2", true, Seq("city", "year")),
      ("records", "authors", true, Seq("name")), ("records", "title", false, Seq("text", "bibtex")),
      ("records", "publisher", false, venue), ("records", "series", false, venue),
      ("records", "urls", true, Seq("url")), ("inproc", "authors", true, Seq("name")),
      ("nestedOrders", "o_lineitems", true, li),
      ("customerNested", "c_orders", true, Seq("o_orderkey", "o_orderdate")),
      ("tweets", "user", false, Seq("uname", "location")), ("tweets", "place", false, Seq("country")),
      ("tweets", "entities", false, Seq("media", "urls")),
      ("tweets", "entities.media", true, Seq("xurl")), ("tweets", "entities.urls", true, Seq("xurl")),
      ("tweets", "hashtags", true, Seq("tag")),
      ("tweets", "retweeted_status", false, status), ("tweets", "quoted_status", false, status))
    expected.foreach { case (table, dotted, rel, fields) =>
      val path = dotted.split('.').toSeq
      val leaf = path.foldLeft(ts(table): DataType)((dt, f) => dt.asInstanceOf[StructType](f).dataType)
      assert(leaf.isInstanceOf[ArrayType] == rel, s"$table.$dotted: $leaf")
      // the attribute's nested fields, reached through tuple flattens of the path's prefix
      val in = path.init.foldLeft(TableAccess(0, table): Op)((op, a) => FlattenTup(1, a, op))
      assert(Source.fieldsOf(Source.colSources(in, ts)(path.last), ts) == fields, s"$table.$dotted")
    }
  }

  test("provided SynthData generators stay deterministic (oracle requirement)") {
    val a = SynthData.lineitem(spark, sf = 0.001)
    val b = SynthData.lineitem(spark, sf = 0.001)
    assert(a.count() == b.count())
    assert(a.exceptAll(b).count() == 0)
  }
}
