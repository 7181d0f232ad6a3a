package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.harness.Tables

/** T10 (paper Fig. 10): per-step allocation update time, pure G-TxAllo vs
  * hybrid TxAllo.
  *
  * Paper reference: A-TxAllo ~0.55s vs G-TxAllo ~122s per update (~220x);
  * the reproduction target is A-TxAllo being at least several times faster
  * per step than a full G-TxAllo rerun.
  */
class F10AdaptiveTimeBench extends AnyFunSuite {

  test("T10: print per-step update time table") {
    println(Tables.evolutionTables("T10")(BenchData.evolution))
  }

  test("T10 shape: adaptive steps are much faster than global steps") {
    val runs = BenchData.evolution.runs
    val gSteps = runs.flatMap(_.steps).filter(_.usedGlobal).map(_.updateNanos / 1e6)
    val aSteps = runs.flatMap(_.steps).filterNot(_.usedGlobal).map(_.updateNanos / 1e6)
    assert(gSteps.nonEmpty && aSteps.nonEmpty)
    val gAvg = gSteps.sum / gSteps.size
    val aAvg = aSteps.sum / aSteps.size
    println(f"[T10] avg global step ${gAvg}%.1f ms vs avg adaptive step ${aAvg}%.1f ms (x${gAvg / aAvg}%.1f)")
    assert(aAvg * 3 < gAvg, s"adaptive $aAvg ms not clearly faster than global $gAvg ms")
  }

  test("T10 shape: pure-A average update time beats pure-G") {
    val runs = BenchData.evolution.runs.map(r => r.name -> r.avgUpdateMillis).toMap
    assert(runs("pure-A") < runs("pure-G"),
           s"pure-A ${runs("pure-A")} ms vs pure-G ${runs("pure-G")} ms")
  }
}
