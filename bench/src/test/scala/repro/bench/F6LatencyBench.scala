package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.harness.{Sweep, Tables}

/** T6 (paper Fig. 6): average confirmation latency zeta.
  *
  * Paper shape: G-TxAllo best at every (k, eta); mostly below 2 blocks.
  */
class F6LatencyBench extends AnyFunSuite {

  test("T6: print average latency table") {
    println(Tables.sweepTables("T6")(BenchData.sweep))
  }

  test("T6 shape: G-TxAllo has the best (or tied) average latency") {
    for (k <- Sweep.Ks; eta <- Sweep.Etas) {
      val tx = BenchData.row(Sweep.MethodTxAllo, k, eta).avgLatency
      for (m <- Seq(Sweep.MethodHash, Sweep.MethodMetis)) {
        val other = BenchData.row(m, k, eta).avgLatency
        assert(tx <= other + 0.10, s"k=$k eta=$eta: txallo $tx vs $m $other")
      }
    }
  }

  test("T6 shape: G-TxAllo average latency stays below ~2 blocks") {
    for (k <- Sweep.Ks; eta <- Sweep.Etas) {
      val tx = BenchData.row(Sweep.MethodTxAllo, k, eta).avgLatency
      assert(tx < 2.5, s"k=$k eta=$eta: average latency $tx")
    }
  }
}
