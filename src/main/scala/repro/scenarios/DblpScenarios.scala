package repro.scenarios

import org.apache.spark.sql.DataFrame
import repro.core.{AltGroup, Question}
import repro.data.Dblp
import repro.nrab._
import repro.whynot._

/** The paper's DBLP scenarios D1–D5 (Tables 4/10). Operator ids follow the
  * paper's superscripts (π1, σ2, F^T3, N^T4, F^T5, σ6, σ7, π8, F^I9);
  * unnumbered operators get ids ≥ 240.
  */
object DblpScenarios {

  def all(t: Map[String, DataFrame]): Seq[Scenario] =
    Seq(d1(t), d2(t), d3(t), d4(t), d5(t))

  /** D1: authors and titles of SIGMOD papers; π1 projects the written-out
    * proceedings title instead of the booktitle into the filter column.
    */
  def d1(t: Map[String, DataFrame]): Scenario = {
    val q = Projection(240, ProjCol.keep("aname", "paptitle"),
      Selection(2, Contains(Attr("stitle"), "SIGMOD"),
        Join(241, JoinKind.Inner, Seq("crossref" -> "pkey"),
          FlattenRel(242, "authors", outer = false, TableAccess(243, "inproc"),
            aliases = Some(Seq("aname" -> "name"))),
          Projection(1, Seq(ProjCol("pkey", Attr("pkey")), ProjCol("stitle", Attr("ptitle"))),
            TableAccess(244, "proc")))))
    Scenario("D1", "All authors and titles of papers published at SIGMOD",
      Question(q, t,
        Nip.tup("aname" -> NAny, "paptitle" -> NConst(Dblp.MissingPaper)),
        Seq(AltGroup(Seq("proc.ptitle", "proc.pbooktitle")))),
      expectedWn = Seq(Set("σ2")),
      expectedRpNoSa = Seq(Set("σ2")),
      expectedRp = Seq(Set("σ2"), Set("π1")))
  }

  /** D2: article count per author (excluding "Dey"); F^T3 flattens
    * title.bibtex, which is null for >99% of records.
    */
  def d2(t: Map[String, DataFrame]): Scenario = {
    val q = Agg(250, Seq("aname" -> "aname"), Seq(AggSpec(AggFunc.Count, "btitle", "numArticles")),
      Selection(251, Not(Contains(Attr("aname"), "Dey")),
        FlattenTup(3, "title",
          FlattenRel(253, "authors", outer = false, TableAccess(252, "records"),
            aliases = Some(Seq("aname" -> "name"))),
          aliases = Some(Seq("btitle" -> "bibtex")))))
    Scenario("D2", "Number of articles for authors without 'Dey' in their name",
      Question(q, t,
        Nip.tup("aname" -> NConst("Alice Smith"), "numArticles" -> NCmp(">=", 5L)),
        Seq(AltGroup(Seq("records.title.bibtex", "records.title.text")))),
      expectedWn = Seq.empty,
      expectedRpNoSa = Seq.empty,
      expectedRp = Seq(Set("F^T3")))
  }

  /** D3: author-paper pairs per booktitle and year; N^T4 nests the author
    * although the expected person is the editor.
    */
  def d3(t: Map[String, DataFrame]): Scenario = {
    val q = Projection(254, ProjCol.keep("booktitle", "year", "pairs"),
      NestRel(255, Seq("pair"), "pairs",
        NestTup(4, Seq("person" -> "author", "ptitle" -> "paptitle"), "pair",
          Projection(256, ProjCol.keep("booktitle", "year", "author", "editor", "paptitle"),
            TableAccess(257, "records")))))
    Scenario("D3", "Author-paper pairs per booktitle and year",
      Question(q, t,
        Nip.tup("booktitle" -> NConst("EDBT"), "year" -> NConst(2017),
          "pairs" -> Nip.bagStar(Nip.tup("pair" ->
            Nip.tup("person" -> NConst("Grace Liu"), "ptitle" -> NAny)))),
        Seq(AltGroup(Seq("records.author", "records.editor")))),
      expectedWn = Seq.empty,
      expectedRpNoSa = Seq.empty,
      expectedRp = Seq(Set("N^T4")))
  }

  /** D4: papers per author published through ACM after 2010; F^T5 flattens
    * the publisher venue (ACM appears as the series) and σ7 filters year
    * 2015 (intended 2010).
    */
  def d4(t: Map[String, DataFrame]): Scenario = {
    val q = NestRel(258, Seq("paptitle"), "papers",
      Projection(259, ProjCol.keep("aname", "paptitle"),
        Selection(7, Pred.eq("fyear", 2015),
          Selection(6, Pred.eq("pub", "ACM"),
            FlattenTup(5, "publisher",
              FlattenRel(260, "authors", outer = false, TableAccess(261, "records"),
                aliases = Some(Seq("aname" -> "name"))),
              aliases = Some(Seq("pub" -> "vname", "fyear" -> "vyear")))))))
    Scenario("D4", "Collection of papers per author having published through ACM after 2010",
      Question(q, t,
        Nip.tup("aname" -> NConst("Bob Kumar"), "papers" -> Nip.bagStar(NAny)),
        Seq(AltGroup(Seq("records.publisher", "records.series")))),
      expectedWn = Seq(Set("σ6")),
      expectedRpNoSa = Seq(Set("σ6"), Set("σ6", "σ7")),
      expectedRp = Seq(Set("σ6"), Set("σ6", "σ7"), Set("F^T5", "σ7"), Set("F^T5", "σ6", "σ7")))
  }

  /** D5: homepage urls per author; F^I9 inner-flattens the (possibly
    * empty) urls relation, π8 projects url although the homepage is in
    * the record-level note.
    */
  def d5(t: Map[String, DataFrame]): Scenario = {
    val q = NestRel(262, Seq("hp"), "hps",
      Projection(8, Seq(ProjCol("aname", Attr("aname")), ProjCol("hp", Attr("url"))),
        FlattenRel(9, "urls", outer = false,
          FlattenRel(263, "authors", outer = false, TableAccess(264, "records"),
            aliases = Some(Seq("aname" -> "name"))),
          aliases = Some(Seq("url" -> "url")))))
    Scenario("D5", "List of (homepage) urls for each author",
      Question(q, t,
        Nip.tup("aname" -> NConst("Carol Wu"), "hps" -> NAny),
        Seq(AltGroup(Seq("records.urls.url", "records.note")))),
      expectedWn = Seq(Set("F^I9")),
      expectedRpNoSa = Seq(Set("F^I9")),
      expectedRp = Seq(Set("F^I9"), Set("π8", "F^I9")),
      deviations = Seq(
        "paper reports {π8} as the second explanation; our revalidation also " +
          "requires the inner flatten (the witness record's urls relation is empty)"))
  }
}
