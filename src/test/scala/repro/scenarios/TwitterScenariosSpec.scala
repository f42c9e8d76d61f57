package repro.scenarios

import repro.SparkSpec
import repro.data.Twitter
import repro.nrab.Eval

/** Reproduces paper Table 8's Twitter rows (T1–T4, T_ASD). */
class TwitterScenariosSpec extends SparkSpec {
  private lazy val t = Twitter.tables(spark)

  private def check(s: Scenario): Unit = {
    val r = s.runAll()
    assert(r.wn == s.expectedWn, s"${s.name} WN++: ${r.wn}")
    assert(r.rpNoSa == s.expectedRpNoSa, s"${s.name} RPnoSA: ${r.rpNoSa}")
    assert(r.rp == s.expectedRp, s"${s.name} RP: ${r.rp}")
    for (g <- s.gold; rank <- s.goldRank)
      assert(r.goldPosition(g).contains(rank), s"${s.name} gold rank: ${r.goldPosition(g)}")
  }

  test("T1: explanations match Table 8") { check(TwitterScenarios.t1(t)) }
  test("T2: explanations match Table 8") { check(TwitterScenarios.t2(t)) }
  test("T3: explanations match Table 8") { check(TwitterScenarios.t3(t)) }
  test("T4: explanations match Table 7 counts (documented deviation)") {
    check(TwitterScenarios.t4(t))
  }
  test("T_ASD: explanations and gold rank match Tables 7/8") {
    check(TwitterScenarios.tAsd(t))
  }

  test("T1 at 1000 tweets (seeds 2, 3): generic tweet ids never collide with planted ones") {
    Seq(2L, 3L).foreach(seed => check(TwitterScenarios.t1(Twitter.tables(spark, nTweets = 1000, seed = seed))))
  }

  test("T1: the famous tweet is absent from the original result") {
    val s = TwitterScenarios.t1(t)
    assert(Eval(s.question.query, t).filter(s"tid = ${Twitter.T1TweetId}").count() == 0)
  }

  test("T2: the fan is absent from the original result") {
    val s = TwitterScenarios.t2(t)
    assert(Eval(s.question.query, t).filter("uname = 'bts_army_jane'").count() == 0)
  }

  test("T3: famous_user is absent from the original result") {
    val s = TwitterScenarios.t3(t)
    assert(Eval(s.question.query, t).filter("mname = 'famous_user'").count() == 0)
  }

  test("T4: #ChelseaFC is absent from the original result") {
    val s = TwitterScenarios.t4(t)
    assert(Eval(s.question.query, t).filter("tag = '#ChelseaFC'").count() == 0)
  }

  test("T_ASD: status 777 is absent from the original result") {
    val s = TwitterScenarios.tAsd(t)
    assert(Eval(s.question.query, t).filter(s"sid = ${Twitter.AsdStatusId}").count() == 0)
  }

  test("T1-T_ASD original queries return non-empty results") {
    TwitterScenarios.all(t).foreach { s =>
      assert(Eval(s.question.query, t).count() > 0, s"${s.name} original result empty")
    }
  }

  test("T_ASD intended query (retweeted_status + retweet count) returns the status") {
    import repro.nrab._
    val fixed = Projection(283, ProjCol.keep("sid", "stext"),
      Selection(22, IsNotNull(Attr("scount")),
        FlattenTup(21, "retweeted_status", TableAccess(284, "tweets"),
          aliases = Some(Seq("sid" -> "sid", "stext" -> "stext", "scount" -> "scount")))))
    assert(Eval(fixed, t).filter(s"sid = ${Twitter.AsdStatusId}").count() >= 1)
  }
}
