package repro.data

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.util.Random

/** Synthetic Twitter-like data substituting the paper's 100–500 GB tweet
  * corpus (~1000 nested attributes); we model exactly the attributes the
  * T-scenarios reference (DESIGN.md §4):
  *
  *  - ``user{uname, location}`` and a top-level ``uname`` (screen name)
  *  - ``place{country}`` — the T2/T4 alternative to ``user.location``
  *  - ``entities{media[], urls[]}`` — the T1/T3 media/url ambiguity
  *  - ``hashtags[]``, ``retweeted_status`` / ``quoted_status`` (T_ASD)
  *
  * Planted witnesses: tweet 501 (T1, LeBron with empty media), fan
  * ``bts_army_jane`` (T2), user ``famous_user`` (T3), the #ChelseaFC
  * tweets (T4), and the retweets of status 777 (T_ASD). Planted tweets
  * have ids 501–802; generic tweets are numbered from
  * ``GenericTweetIds + 1`` up, so no tweet count makes the two collide.
  */
object Twitter {
  final case class TUser(uname: String, location: String)
  final case class TPlace(country: String)
  final case class TUrl(xurl: String)
  final case class TEntities(media: Seq[TUrl], urls: Seq[TUrl])
  final case class THashtag(tag: String)
  final case class TStatus(sid: java.lang.Long, stext: String, scount: java.lang.Long)
  final case class Tweet(tid: Long, text: String, uname: String, user: TUser, place: TPlace,
                         entities: TEntities, hashtags: Seq[THashtag],
                         retweeted_status: TStatus, quoted_status: TStatus)
  final case class Mention(mname: String)

  val T1TweetId = 501L
  val AsdStatusId = 777L
  val GenericTweetIds = 1000L

  def tables(spark: SparkSession, nTweets: Int = 300, seed: Long = 13): Map[String, DataFrame] = {
    import spark.implicits._
    val rnd = new Random(seed)
    val countries = Seq("US", "KR", "DE", "FR", "BR")
    val noStatus = TStatus(null, null, null)

    val generic = (1 to nTweets).map { i =>
      val u = s"user$i"
      Tweet(
        tid = GenericTweetIds + i,
        text = Seq("Michael Jordan highlights", "UEFA news update", "BTS comeback", "hello world")(rnd.nextInt(4)),
        uname = u,
        user = TUser(u, if (rnd.nextBoolean()) countries(rnd.nextInt(countries.size)) else null),
        place = TPlace(countries(rnd.nextInt(countries.size))),
        entities = TEntities(
          media = if (rnd.nextBoolean()) Seq(TUrl(s"https://media.example/$i")) else Seq.empty,
          urls = Seq(TUrl(s"https://t.co/$i"))),
        hashtags = Seq(THashtag(Seq("#NBA", "#UEFA", "#KPop", "#Misc")(rnd.nextInt(4)))),
        retweeted_status =
          if (i % 3 == 0) TStatus(10000L + i, s"retweeted text $i", i.toLong) else noStatus,
        quoted_status =
          if (i % 4 == 0) TStatus(20000L + i, s"quoted text $i", i.toLong) else noStatus)
    }

    val planted = Seq(
      // T1: famous LeBron tweet — media empty, the video url sits in
      // entities.urls; text does NOT mention Michael Jordan
      Tweet(T1TweetId, "LeBron James with the dunk of the year", "nba_fan", TUser("nba_fan", "US"),
        TPlace("US"), TEntities(Seq.empty, Seq(TUrl("https://video.example/501"))),
        Seq(THashtag("#NBA")), noStatus, noStatus),
      // T2: the known US fan — country recorded in user.location, not place
      Tweet(502, "I love BTS so much", "bts_army_jane", TUser("bts_army_jane", "US"),
        TPlace("KR"), TEntities(Seq.empty, Seq.empty), Seq(THashtag("#KPop")), noStatus, noStatus),
      Tweet(503, "concert tonight!", "bts_army_jane", TUser("bts_army_jane", null),
        TPlace("KR"), TEntities(Seq.empty, Seq.empty), Seq(THashtag("#KPop")), noStatus, noStatus),
      // T3: famous_user's tweet — media empty, urls carry the content
      Tweet(601, "my latest mixtape", "famous_user", TUser("famous_user", "US"),
        TPlace("US"), TEntities(Seq.empty, Seq(TUrl("https://mixtape.example/601"))),
        Seq(THashtag("#Misc")), noStatus, noStatus),
      // T4: #ChelseaFC tweets — a3 has UEFA text + location, b5 has the
      // place country but no UEFA text
      Tweet(701, "UEFA final tonight!", "blues1", TUser("blues1", "England"),
        TPlace(null), TEntities(Seq.empty, Seq.empty), Seq(THashtag("#ChelseaFC")), noStatus, noStatus),
      Tweet(702, "great match lads", "blues2", TUser("blues2", "England"),
        TPlace("England"), TEntities(Seq.empty, Seq.empty), Seq(THashtag("#ChelseaFC")), noStatus, noStatus),
      // T_ASD: two retweets of the famous status 777 — never quoted
      Tweet(801, "so true", "rt_user1", TUser("rt_user1", "US"), TPlace("US"),
        TEntities(Seq.empty, Seq.empty), Seq(THashtag("#Misc")),
        TStatus(AsdStatusId, "the famous tweet text", 42L), noStatus),
      Tweet(802, "this!", "rt_user2", TUser("rt_user2", "DE"), TPlace("DE"),
        TEntities(Seq.empty, Seq.empty), Seq(THashtag("#Misc")),
        TStatus(AsdStatusId, "the famous tweet text", null), noStatus))

    val mentions = (Seq(Mention("famous_user")) ++
      Seq.fill(40)(Mention(s"user${rnd.nextInt(nTweets) + 1}"))).distinct


    Map(
      "tweets" -> (generic ++ planted).toDS().toDF().cache(),
      "mentions" -> mentions.toDS().toDF().cache())
  }
}
