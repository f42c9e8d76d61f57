package repro.scenarios

import org.apache.spark.sql.DataFrame
import repro.core.{AltGroup, Question}
import repro.data.Twitter
import repro.nrab._
import repro.whynot._

/** The paper's Twitter scenarios T1–T4 and T_ASD (Tables 5/10). Operator
  * ids follow the paper's superscripts (F^T10, F^I11, σ12, F^T13, σ14,
  * σ15, F^T16, F^I17, F^T18, σ19, σ20, F^T21, σ22); unnumbered operators
  * get ids ≥ 270.
  */
object TwitterScenarios {

  def all(t: Map[String, DataFrame]): Seq[Scenario] =
    Seq(t1(t), t2(t), t3(t), t4(t), tAsd(t))

  /** T1: tweets with media urls about a basketball player; errors: the
    * player filter names the wrong player (σ12) and the urls sit in
    * entities.urls, not entities.media (F^T10's promoted array).
    */
  def t1(t: Map[String, DataFrame]): Scenario = {
    val q = Projection(270, ProjCol.keep("tid", "murl"),
      Selection(12, Contains(Attr("text"), "Michael Jordan"),
        FlattenRel(11, "m", outer = false,
          FlattenTup(10, "entities", TableAccess(271, "tweets"),
            aliases = Some(Seq("m" -> "media"))),
          aliases = Some(Seq("murl" -> "xurl")))))
    Scenario("T1", "Tweets providing media urls about a basketball player",
      Question(q, t,
        Nip.tup("tid" -> NConst(Twitter.T1TweetId), "murl" -> NAny),
        Seq(AltGroup(Seq("tweets.entities.media", "tweets.entities.urls")))),
      expectedWn = Seq(Set("F^I11")),
      expectedRpNoSa = Seq(Set("F^I11", "σ12")),
      expectedRp = Seq(Set("F^I11", "σ12"), Set("F^T10", "σ12")))
  }

  /** T2: users who tweeted about BTS in the US; errors: σ15 filters the
    * flattened place.country, but the fan's country is in user.location.
    */
  def t2(t: Map[String, DataFrame]): Scenario = {
    val q = Projection(272, ProjCol.keep("uname"),
      Selection(15, Pred.eq("country", "US"),
        Selection(14, Contains(Attr("text"), "BTS"),
          FlattenTup(13, "place", TableAccess(273, "tweets"),
            aliases = Some(Seq("country" -> "country"))))))
    Scenario("T2", "All users who tweeted about BTS in the US",
      Question(q, t,
        Nip.tup("uname" -> NConst("bts_army_jane")),
        Seq(AltGroup(Seq("tweets.place", "tweets.user"),
          fieldLists = Seq(Seq("country"), Seq("location"))))),
      expectedWn = Seq(Set("σ15")),
      expectedRpNoSa = Seq(Set("σ15"), Set("σ14", "σ15")),
      expectedRp = Seq(Set("σ15"), Set("F^T13"), Set("σ14", "σ15"),
        Set("F^T13", "σ14", "σ15")))
  }

  /** T3: media for users mentioned in other tweets; the user's media
    * relation is empty, the urls relation holds the content (same SA as
    * T1).
    */
  def t3(t: Map[String, DataFrame]): Scenario = {
    val q = Projection(274, ProjCol.keep("mname", "murl"),
      Join(275, JoinKind.Inner, Seq("mname" -> "uname"),
        TableAccess(276, "mentions"),
        FlattenRel(17, "m", outer = false,
          FlattenTup(16, "entities", TableAccess(277, "tweets"),
            aliases = Some(Seq("m" -> "media"))),
          aliases = Some(Seq("murl" -> "xurl")))))
    Scenario("T3", "Hashtags and medias for users mentioned in other tweets",
      Question(q, t,
        Nip.tup("mname" -> NConst("famous_user"), "murl" -> NAny),
        Seq(AltGroup(Seq("tweets.entities.media", "tweets.entities.urls"))),
        baselineCompat = Map("tweets" -> Pred.eq("uname", "famous_user"))),
      expectedWn = Seq(Set("F^I17")),
      expectedRpNoSa = Seq(Set("F^I17")),
      expectedRp = Seq(Set("F^I17"), Set("F^T16")))
  }

  /** T4: nested countries per hashtag for UEFA tweets with a non-zero
    * country count; the country comes from place.country although the
    * club's tweets record it in user.location.
    */
  def t4(t: Map[String, DataFrame]): Scenario = {
    val q = NestRel(278, Seq("country"), "countries",
      Projection(279, ProjCol.keep("tag", "country"),
        Selection(20, Pred.gt("cnt", 0L),
          Agg(280, Agg.keys("tag", "country"), Seq(AggSpec(AggFunc.Count, "country", "cnt")),
            Selection(19, Contains(Attr("text"), "UEFA"),
              FlattenTup(18, "place",
                FlattenRel(281, "hashtags", outer = false, TableAccess(282, "tweets"),
                  aliases = Some(Seq("tag" -> "tag"))),
                aliases = Some(Seq("country" -> "country"))))))))
    Scenario("T4", "Nested list of countries per hashtag for UEFA tweets",
      Question(q, t,
        Nip.tup("tag" -> NConst("#ChelseaFC"),
          "countries" -> Nip.bagStar(Nip.tup("country" -> NConst("England")))),
        Seq(AltGroup(Seq("tweets.place", "tweets.user"),
          fieldLists = Seq(Seq("country"), Seq("location"))))),
      expectedWn = Seq(Set("σ19")),
      expectedRpNoSa = Seq(Set("σ19", "σ20")),
      expectedRp = Seq(Set("F^T18"), Set("σ19", "σ20"), Set("F^T18", "σ19")),
      deviations = Seq(
        "paper reports {F^T18, σ19, σ20} as the third explanation; under our " +
          "group-level retained semantics for the post-aggregation selection the " +
          "third explanation is {F^T18, σ19} (σ20 self-heals once σ19 admits the " +
          "witness group) — counts and operator types match Table 7"))
  }

  /** T_ASD: flat relation of retweeted tweets [36]; errors: F^T21 flattens
    * quoted_status (intended retweeted_status) and σ22 checks the quote
    * count.
    */
  def tAsd(t: Map[String, DataFrame]): Scenario = {
    val q = Projection(283, ProjCol.keep("sid", "stext"),
      Selection(22, IsNotNull(Attr("scount")),
        FlattenTup(21, "quoted_status", TableAccess(284, "tweets"),
          aliases = Some(Seq("sid" -> "sid", "stext" -> "stext", "scount" -> "scount")))))
    Scenario("T_ASD", "ASD example: flatten, filter, project retweeted tweets",
      Question(q, t,
        Nip.tup("sid" -> NConst(Twitter.AsdStatusId), "stext" -> NAny),
        Seq(AltGroup(Seq("tweets.retweeted_status", "tweets.quoted_status")))),
      expectedWn = Seq.empty,
      expectedRpNoSa = Seq.empty,
      expectedRp = Seq(Set("F^T21"), Set("F^T21", "σ22")),
      goldRank = Some(2), gold = Some(Set("F^T21", "σ22")))
  }
}
