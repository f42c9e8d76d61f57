package repro.scenarios

import org.apache.spark.sql.DataFrame
import repro.core.{AltGroup, Question}
import repro.nrab._
import repro.whynot._

/** The paper's crime scenarios C1–C3 (Table 6) comparing Why-Not [9],
  * Conseil [19], and the reparameterization approach (§6.4). Operator ids
  * σ1, ⋈2, σ3, σ4, ⋈5, π6 follow the paper; unnumbered ops get ids ≥ 290.
  */
object CrimeScenarios {

  def all(t: Map[String, DataFrame]): Seq[Scenario] = Seq(c1(t), c2(t), c3(t))

  /** C1: π_{name,type}(C ⋈ (W ⋈2 (S ⋈ σ1(P)))) — why is Roger missing? */
  def c1(t: Map[String, DataFrame]): Scenario = {
    val q = Projection(290, Seq(ProjCol("name", Attr("p_name")), ProjCol("type", Attr("c_type"))),
      Join(291, JoinKind.Inner, Seq("c_sector" -> "w_sector"),
        TableAccess(292, "crimes"),
        Join(2, JoinKind.Inner, Seq("w_name" -> "s_witness"),
          TableAccess(293, "witnesses"),
          Join(294, JoinKind.Inner, Seq("s_hair" -> "p_hair", "s_clothes" -> "p_clothes"),
            TableAccess(295, "sightings"),
            Selection(1, Pred.eq("p_hair", "blue"), TableAccess(296, "persons"))))))
    Scenario("C1", "Persons with blue hair seen by a witness near a crime",
      Question(q, t, Nip.tup("name" -> NConst("Roger"), "type" -> NAny)),
      expectedWn = Seq(Set("σ1")),
      expectedRpNoSa = Seq(Set("σ1", "⋈2")),
      expectedRp = Seq(Set("σ1", "⋈2")),
      expectedWhyNot = Some(Set("σ1")),
      expectedConseil = Some(Set("σ1", "⋈2")))
  }

  /** C2: π_{P.name}(P ⋈ (S ⋈ (C ⋈ σ4(σ3(W))))) — why is Conedera missing? */
  def c2(t: Map[String, DataFrame]): Scenario = {
    val q = Projection(297, Seq(ProjCol("name", Attr("p_name"))),
      Join(298, JoinKind.Inner, Seq("p_hair" -> "s_hair", "p_clothes" -> "s_clothes"),
        TableAccess(299, "persons"),
        Join(300, JoinKind.Inner, Seq("s_witness" -> "w_name"),
          TableAccess(301, "sightings"),
          Join(302, JoinKind.Inner, Seq("w_sector" -> "c_sector"),
            Selection(4, Pred.eq("w_name", "Susan"),
              Selection(3, Pred.gt("w_sector", 90), TableAccess(303, "witnesses"))),
            TableAccess(304, "crimes")))))
    Scenario("C2", "Persons whose look was reported by Susan from a high sector",
      Question(q, t, Nip.tup("name" -> NConst("Conedera")),
        baselineCompat = Map("witnesses" ->
          Or(Pred.eq("w_name", "Luisa"), Pred.eq("w_name", "Mario")))),
      expectedWn = Seq(Set("σ4")),
      expectedRpNoSa = Seq(Set("σ4"), Set("σ3", "σ4")),
      expectedRp = Seq(Set("σ4"), Set("σ3", "σ4")),
      expectedWhyNot = Some(Set("σ4")),
      expectedConseil = Some(Set("σ4")))
  }

  /** C3: π6_{name, desc<-hair}(S ⋈5 (W ⋈ C)) — why is (Ashishbakshi, snow)
    * missing? Our approach does NOT return the join (only a cross product
    * could repair it); the schema alternative hair -> clothes finds π6.
    */
  def c3(t: Map[String, DataFrame]): Scenario = {
    val q = Projection(6, Seq(ProjCol("name", Attr("s_name")), ProjCol("desc", Attr("s_hair"))),
      Join(5, JoinKind.Inner, Seq("s_witness" -> "w_name"),
        TableAccess(305, "sightings"),
        Join(306, JoinKind.Inner, Seq("w_sector" -> "c_sector"),
          TableAccess(307, "witnesses"), TableAccess(308, "crimes"))))
    Scenario("C3", "Sightings with witness and crime context",
      Question(q, t, Nip.tup("name" -> NConst("Ashishbakshi"), "desc" -> NConst("snow")),
        altGroups = Seq(AltGroup(Seq("sightings.s_hair", "sightings.s_clothes"))),
        baselineCompat = Map("sightings" -> Pred.eq("s_name", "Ashishbakshi"))),
      expectedWn = Seq(Set("⋈5")),
      expectedRpNoSa = Seq.empty,
      expectedRp = Seq(Set("π6")),
      expectedWhyNot = Some(Set("⋈5")),
      expectedConseil = Some(Set("⋈5")))
  }
}
