package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.util.Random

/** Synthetic DBLP-like bibliography substituting the paper's 100–500 GB
  * DBLP XML dump (DESIGN.md §4). Two tables:
  *
  *  - ``proc``  — proceedings: written-out title + short booktitle (D1's
  *    ambiguity: only the booktitle contains "SIGMOD")
  *  - ``records`` — publication records with the nested attributes the
  *    D-scenarios exercise: authors (nested relation), author/editor
  *    (D3), title{text, bibtex} with bibtex null for >99% of records
  *    (D2, as the paper reports), publisher/series venue structs that
  *    each carry their own year (D4), urls relation + record-level note
  *    (D5's homepage ambiguity)
  *
  * Planted witnesses: Alice Smith (D2, 6 articles, bibtex always null),
  * Grace Liu (D3, editor not author), Bob Kumar (D4, published through
  * ACM as series in 2010), Carol Wu (D5, homepage in note, empty urls).
  */
object Dblp {
  final case class DName(name: String)
  final case class DTitle(text: String, bibtex: String)
  final case class DVenue(vname: String, vyear: Int)
  final case class DUrl(url: String)
  final case class DRecord(rkey: Long, authors: Seq[DName], author: String, editor: String,
                           paptitle: String, booktitle: String, year: Int, title: DTitle,
                           publisher: DVenue, series: DVenue, urls: Seq[DUrl], note: String)
  final case class DProc(pkey: Long, ptitle: String, pbooktitle: String)
  final case class DInproc(ikey: Long, crossref: Long, paptitle: String, authors: Seq[DName])

  val MissingPaper = "Holistic Missing Answer Explanations"

  def tables(spark: SparkSession, nRecords: Int = 400, seed: Long = 11): Map[String, DataFrame] = {
    import spark.implicits._
    val rnd = new Random(seed)

    // ---- proceedings + inproceedings (D1) ---------------------------------
    val procs = Seq(
      DProc(1, "Proceedings of the International Conference on Management of Data", "SIGMOD '19"),
      DProc(2, "Proceedings of the VLDB Endowment", "PVLDB '19"),
      DProc(3, "SIGMOD Record Issue 48", "SIGREC '19"), // written-out title containing SIGMOD
      DProc(4, "Proceedings of the Conference on Extending Database Technology", "EDBT '20"))
    val inprocs =
      DInproc(100, 1, MissingPaper, Seq(DName("Ralf D"), DName("Seokki L"))) +:
        (1 to 60).map { i =>
          DInproc(100 + i, procs(rnd.nextInt(procs.size)).pkey,
            s"Generic Paper $i", Seq(DName(s"Author $i"), DName(s"CoAuthor ${i % 7}")))
        }

    // ---- records (D2–D5) --------------------------------------------------
    val venues = Seq("IEEE", "Springer", "Elsevier", "ACM", "USENIX")
    val generic = (1 to nRecords).map { i =>
      DRecord(
        rkey = i.toLong,
        authors = Seq(DName(s"Author ${i % 50}"), DName(s"Dey ${i % 11}")),
        author = s"Author ${i % 50}", editor = s"Editor ${i % 20}",
        paptitle = s"Record Title $i", booktitle = Seq("EDBT", "ICDE", "CIKM")(i % 3),
        year = 2005 + (i % 15),
        title = DTitle(s"Record Title $i", if (i % 120 == 0) s"@inproceedings{r$i}" else null),
        publisher = DVenue(venues(rnd.nextInt(venues.size)), 2005 + rnd.nextInt(15)),
        series = DVenue(venues(rnd.nextInt(venues.size)), 2005 + rnd.nextInt(15)),
        urls = if (i % 4 == 0) Seq.empty else Seq(DUrl(s"https://dblp.org/rec/$i")),
        note = if (i % 9 == 0) s"https://home.example.org/$i" else null)
    }
    val planted = Seq(
      // D2: Alice Smith — 6 articles, bibtex always null, text set
      (1 to 6).map(i => DRecord(9000L + i, Seq(DName("Alice Smith")), "Alice Smith", "Editor X",
        s"Alice Paper $i", "ICDE", 2015 + i % 3, DTitle(s"Alice Paper $i", null),
        DVenue("IEEE", 2015), DVenue("Springer", 2015), Seq(DUrl(s"https://x/$i")), null)),
      // D3: Grace Liu is the EDBT'2017 editor (author is someone else)
      Seq(DRecord(9100L, Seq(DName("Henry Ford")), "Henry Ford", "Grace Liu",
        "Edited Volume Chapter", "EDBT", 2017, DTitle("Edited Volume Chapter", null),
        DVenue("Springer", 2017), DVenue("LNCS", 2017), Seq.empty, null)),
      // D4: Bob Kumar — ACM appears as the series (with year 2010/2012),
      // the publisher is IEEE (2015/2010)
      Seq(
        DRecord(9200L, Seq(DName("Bob Kumar")), "Bob Kumar", "Editor Y", "Bob Paper 1",
          "CIKM", 2015, DTitle("Bob Paper 1", null),
          DVenue("IEEE", 2015), DVenue("ACM", 2010), Seq(DUrl("https://x/b1")), null),
        DRecord(9201L, Seq(DName("Bob Kumar")), "Bob Kumar", "Editor Y", "Bob Paper 2",
          "CIKM", 2010, DTitle("Bob Paper 2", null),
          DVenue("IEEE", 2010), DVenue("Springer", 2012), Seq(DUrl("https://x/b2")), null)),
      // D5: Carol Wu — homepage in the record-level note, urls empty
      Seq(DRecord(9300L, Seq(DName("Carol Wu")), "Carol Wu", "Editor Z", "Carol Paper",
        "ICDE", 2018, DTitle("Carol Paper", null),
        DVenue("IEEE", 2018), DVenue("ACM", 2018), Seq.empty, "https://carol.example.org"))
    ).flatten


    Map(
      "proc" -> procs.toDS().toDF().cache(),
      "inproc" -> inprocs.toDS().toDF().cache(),
      "records" -> (generic ++ planted).toDS().toDF().cache())
  }
}
