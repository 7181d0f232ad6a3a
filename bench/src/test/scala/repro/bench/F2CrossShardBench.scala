package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.harness.{Sweep, Tables}

/** T2 (paper Fig. 2): cross-shard transaction ratio gamma.
  *
  * Paper reference points (91M-tx Ethereum, k=60): hash ~98%, METIS ~28%,
  * G-TxAllo ~12%; G-TxAllo best at every (k, eta); gamma self-adjusts (does
  * not grow) as eta grows.
  */
class F2CrossShardBench extends AnyFunSuite {

  test("T2: print cross-shard ratio table") {
    println(Tables.sweepTables("T2")(BenchData.sweep))
  }

  test("T2 shape: hash is near 1 - 1/k and worst overall") {
    for (k <- Sweep.Ks; eta <- Sweep.Etas) {
      val hash = BenchData.row(Sweep.MethodHash, k, eta).gamma
      assert(hash > (1.0 - 1.0 / k) - 0.10, s"hash gamma $hash at k=$k")
      for (m <- Seq(Sweep.MethodMetis, Sweep.MethodScheduler, Sweep.MethodTxAllo))
        assert(BenchData.row(m, k, eta).gamma < hash, s"$m not better than hash at k=$k eta=$eta")
    }
  }

  test("T2 shape: G-TxAllo achieves the lowest graph-method gamma at k=60") {
    for (eta <- Sweep.Etas) {
      val tx = BenchData.row(Sweep.MethodTxAllo, 60, eta).gamma
      val metis = BenchData.row(Sweep.MethodMetis, 60, eta).gamma
      assert(tx <= metis + 0.03, s"eta=$eta: txallo $tx vs metis $metis")
      assert(tx < 0.40, s"eta=$eta: txallo gamma $tx too high")
    }
  }

  test("T2 shape: G-TxAllo gamma self-adjusts with eta (non-increasing)") {
    for (k <- Sweep.Ks) {
      val g2 = BenchData.row(Sweep.MethodTxAllo, k, 2.0).gamma
      val g10 = BenchData.row(Sweep.MethodTxAllo, k, 10.0).gamma
      assert(g10 <= g2 + 0.05, s"k=$k: gamma(eta=10)=$g10 vs gamma(eta=2)=$g2")
    }
  }
}
