package repro.whynot

import org.apache.spark.sql.functions.{col, lit}
import org.scalacheck.{Prop, Test => SCTest}
import repro.SparkSpec

/** Unit tests for NIP matching (paper Def. 3/4), including the paper's
  * Examples 6 and 7 and the multiplicity-respecting bag assignment, and
  * for the range satisfiability the tracer's aggregate checks use.
  */
class NipSpec extends SparkSpec {

  private def check(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(50), p)
    assert(res.passed, res.status.toString)
  }

  test("? matches any primitive") {
    assert(NAny.matches(42))
    assert(NAny.matches("x"))
    assert(NAny.matches(null))
  }

  test("constants match by value (numeric widening)") {
    assert(NConst(5).matches(5))
    assert(NConst(5).matches(5L))
    assert(NConst(5.0).matches(5))
    assert(!NConst(5).matches(6))
    assert(!NConst("NY").matches("LA"))
    assert(!NConst("NY").matches(null))
  }

  test("comparison constraints on numbers") {
    assert(NCmp(">", 10).matches(11))
    assert(!NCmp(">", 10).matches(10))
    assert(NCmp(">=", 10).matches(10))
    assert(NCmp("<", 0.5).matches(0.45))
    assert(NCmp("!=", 3).matches(4))
    assert(!NCmp("=", 3).matches(4))
  }

  test("comparison constraints on strings") {
    assert(NCmp(">", "b").matches("c"))
    assert(!NCmp("<", "b").matches("c"))
  }

  test("tuple patterns match attribute-wise (Def. 4 cond 3)") {
    val t = Nip.tup("a" -> NConst(1), "b" -> NAny)
    assert(t.matches(Seq("a" -> 1, "b" -> "anything")))
    assert(!t.matches(Seq("a" -> 2, "b" -> "anything")))
  }

  test("bag with * absorbs extra elements (Def. 4 cond 4a)") {
    val b = Nip.bagStar(NConst("x"))
    assert(b.matches(Seq("x")))
    assert(b.matches(Seq("x", "y", "z")))
    assert(!b.matches(Seq("y", "z")))
  }

  test("bag without * requires exact multiplicity coverage (4b/4c)") {
    val b = Nip.bag(NConst("x"), NAny)
    assert(b.matches(Seq("x", "y")))
    assert(!b.matches(Seq("x")))          // unused pattern element
    assert(!b.matches(Seq("x", "y", "z")))// unassigned instance element
  }

  test("Example 6: {{?, *}} matches {Sue^2, Peter} but {{?, ?}} does not") {
    val nList = Seq(
      Seq("name" -> "Sue"), Seq("name" -> "Sue"), Seq("name" -> "Peter"))
    val tEx  = Nip.tup("city" -> NConst("NY"), "nList" -> Nip.bagStar(NAny))
    val tEx2 = Nip.tup("city" -> NConst("NY"), "nList" -> Nip.bag(NAny, NAny))
    val tuple = Seq("city" -> "NY", "nList" -> nList)
    assert(tEx.matches(tuple))
    assert(!tEx2.matches(tuple))
  }

  test("Example 7: nested pattern matches Sue's tuple") {
    val t = Nip.tup(
      "name" -> NConst("Sue"),
      "address1" -> NAny,
      "address2" -> Nip.bagStar(
        Nip.tup("city" -> NAny, "year" -> NConst(2019))))
    val sue = Seq(
      "name" -> "Sue",
      "address1" -> Seq(Seq("city" -> "LA", "year" -> 2019), Seq("city" -> "NY", "year" -> 2018)),
      "address2" -> Seq(Seq("city" -> "LA", "year" -> 2019), Seq("city" -> "NY", "year" -> 2018)))
    assert(t.matches(sue))
    val peter = Seq(
      "name" -> "Peter",
      "address1" -> Seq(Seq("city" -> "NY", "year" -> 2010)),
      "address2" -> Seq(Seq("city" -> "LA", "year" -> 2010), Seq("city" -> "SF", "year" -> 2018)))
    assert(!t.matches(peter))
  }

  test("duplicate elements need duplicate pattern slots (Example 6 counts)") {
    val two = Nip.bag(NConst("a"), NConst("a"))
    assert(two.matches(Seq("a", "a")))
    assert(!two.matches(Seq("a")))
    assert(!two.matches(Seq("a", "a", "a")))
  }

  test("bag matching is order-insensitive") {
    val b = Nip.bag(NConst(1), NConst(2), NConst(3))
    assert(b.matches(Seq(3, 1, 2)))
    assert(b.matches(Seq(2, 3, 1)))
    assert(!b.matches(Seq(3, 1, 1)))
  }

  test("toColumn compiles only * bags; a bag without * is rejected") {
    val rows = spark.sql("select array('x', 'y') as xs").select(Seq(
      Nip.tup("xs" -> Nip.bagStar(NConst("x"))), Nip.tup("xs" -> Nip.bagStar()),
      Nip.tup("xs" -> Nip.bagStar(NConst("z")))).map(Nip.toColumn(_, col)): _*).head()
    assert(rows.toSeq == Seq(true, true, false))
    Seq(Nip.bag(NConst("x"), NAny), Nip.bag()).foreach { b =>
      val e = intercept[IllegalArgumentException](Nip.toColumn(Nip.tup("xs" -> b), col))
      assert(e.getMessage.contains("non-primitive constraint"), b)
    }
  }

  test("satisfiable: comparisons against [lo, hi]") {
    val cases = Seq(
      (NCmp(">", 0), 0, 100, true), (NCmp(">", 100), 0, 100, false),
      (NCmp(">=", 100), 0, 100, true), (NCmp("<", 50), 0, 100, true),
      (NCmp("<", 0), 0, 100, false), (NConst(42), 0, 100, true),
      (NConst(101), 0, 100, false), (NAny, 0, 0, true),
      (NCmp("!=", 5), 5, 5, false), (NCmp("!=", 5), 5, 6, true))
    val row = spark.range(1).select(cases.map { case (n, lo, hi, _) =>
      Nip.satisfiable(n, lit(lo), lit(hi)) }: _*).head()
    cases.zipWithIndex.foreach { case ((n, lo, hi, want), i) =>
      assert(row.getBoolean(i) == want, s"$n in [$lo, $hi]")
    }
  }

  test("an unknown comparison operator is rejected on construction, by name") {
    Seq("==", "<>", "").foreach { op =>
      val e = intercept[IllegalArgumentException](NCmp(op, 1))
      assert(e.getMessage.contains(s"unknown comparison operator '$op'"), e.getMessage)
    }
  }

  test("property: a bag pattern built from an instance always matches it") {
    check(Prop.forAll { (xs0: List[Int]) =>
      val xs = xs0.take(8)
      NBag(xs.map(x => NConst(x)), star = false).matches(xs)
    })
  }

  test("property: star bag of constants matches any superset multiset") {
    check(Prop.forAll { (xs0: List[Int], extra0: List[Int]) =>
      val (xs, extra) = (xs0.take(8), extra0.take(8))
      NBag(xs.map(x => NConst(x)), star = true).matches(xs ++ extra)
    })
  }

  test("property: removing an element breaks an exact bag match") {
    check(Prop.forAll { (xs0: List[Int]) =>
      val xs = xs0.take(8)
      xs.isEmpty || !NBag(xs.map(x => NConst(x)), star = false).matches(xs.tail)
    })
  }
}
