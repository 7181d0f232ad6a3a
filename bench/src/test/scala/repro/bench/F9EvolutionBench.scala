package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.harness.Tables

/** T9 (paper Fig. 9): throughput evolution of A-TxAllo under different global
  * updating gaps tau2.
  *
  * Paper shape: pure A-TxAllo degrades only slowly vs G-TxAllo (loss still
  * acceptable after 200 steps ~= 9 days); hybrid averages show no significant
  * difference across gaps.
  */
class F9EvolutionBench extends AnyFunSuite {

  test("T9: print throughput evolution table") {
    println(Tables.evolutionTables("T9")(BenchData.evolution))
  }

  test("T9 shape: pure A-TxAllo average throughput is close to pure G-TxAllo") {
    val runs = BenchData.evolution.runs.map(r => r.name -> r.avgThroughput).toMap
    assert(runs("pure-A") >= 0.85 * runs("pure-G"),
           s"pure-A ${runs("pure-A")} vs pure-G ${runs("pure-G")}")
  }

  test("T9 shape: hybrid averages sit between (or near) pure-A and pure-G") {
    val runs = BenchData.evolution.runs.map(r => r.name -> r.avgThroughput).toMap
    val lo = math.min(runs("pure-A"), runs("pure-G")) * 0.95
    BenchData.evolution.runs.filter(_.name.startsWith("hybrid")).foreach { r =>
      assert(r.avgThroughput >= lo, s"${r.name} ${r.avgThroughput} below band $lo")
    }
  }

  test("T9 shape: every strategy keeps positive throughput at every step") {
    BenchData.evolution.runs.foreach { r =>
      for ((s, t) <- r.steps.zipWithIndex) assert(s.normThroughput > 1.0, s"${r.name} step $t: ${s.normThroughput}")
    }
  }
}
