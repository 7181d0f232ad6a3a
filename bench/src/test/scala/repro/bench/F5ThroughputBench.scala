package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.harness.{Sweep, Tables}

/** T5 (paper Fig. 5): normalized system throughput Lambda/lambda.
  *
  * Paper reference: throughput grows ~linearly with k for all methods;
  * G-TxAllo grows fastest (34.7x vs METIS 31.6x at k=60, eta=2, ~10% gap);
  * all methods degrade as eta grows, G-TxAllo the most stable.
  */
class F5ThroughputBench extends AnyFunSuite {

  test("T5: print normalized throughput table") {
    println(Tables.sweepTables("T5")(BenchData.sweep))
  }

  test("T5 shape: G-TxAllo beats hash everywhere and METIS at scale") {
    // Paper: G-TxAllo ahead of METIS at every k (by ~10% at k=60). Measured:
    // ahead at k >= 40; at k in {10,20} the hub "dump" shard (EXPERIMENTS.md)
    // weighs relatively more and METIS leads by <= 15%.
    for (k <- Sweep.Ks; eta <- Sweep.Etas) {
      val tx = BenchData.row(Sweep.MethodTxAllo, k, eta).normThroughput
      assert(tx > BenchData.row(Sweep.MethodHash, k, eta).normThroughput,
             s"k=$k eta=$eta: txallo below hash")
      val metis = BenchData.row(Sweep.MethodMetis, k, eta).normThroughput
      val floor = if (k >= 40) 1.0 else 0.80
      assert(tx >= metis * floor, s"k=$k eta=$eta: txallo $tx vs metis $metis (floor $floor)")
    }
  }

  test("T5 shape: G-TxAllo throughput grows with k") {
    for (eta <- Sweep.Etas) {
      val ks = Sweep.Ks
      val thr = ks.map(k => BenchData.row(Sweep.MethodTxAllo, k, eta).normThroughput)
      ks.zip(thr).sliding(2).foreach { case Seq((k1, t1), (k2, t2)) =>
        assert(t2 > t1, s"eta=$eta: throughput not growing from k=$k1 ($t1) to k=$k2 ($t2)")
      }
    }
  }

  test("T5 shape: larger eta never helps throughput") {
    for (m <- Sweep.Methods; k <- Sweep.Ks) {
      val t2 = BenchData.row(m, k, 2.0).normThroughput
      val t10 = BenchData.row(m, k, 10.0).normThroughput
      assert(t10 <= t2 + 1e-6, s"$m k=$k: eta=10 throughput $t10 above eta=2 $t2")
    }
  }

  test("T5 shape: G-TxAllo is more stable than METIS under growing eta") {
    // (hash is excluded: it is already saturated-bad at eta=2, so its
    // *relative* drop is artificially small — the paper compares absolutes.)
    val k = 60
    def drop(m: String) =
      1.0 - BenchData.row(m, k, 10.0).normThroughput / BenchData.row(m, k, 2.0).normThroughput
    assert(drop(Sweep.MethodTxAllo) <= drop(Sweep.MethodMetis) + 0.15,
           s"txallo drop ${drop(Sweep.MethodTxAllo)} vs metis drop ${drop(Sweep.MethodMetis)}")
    for (eta <- Sweep.Etas) {
      val tx = BenchData.row(Sweep.MethodTxAllo, k, eta).normThroughput
      Sweep.Methods.filter(_ != Sweep.MethodTxAllo).foreach { m =>
        assert(tx >= BenchData.row(m, k, eta).normThroughput * 0.98,
               s"eta=$eta: txallo $tx below $m")
      }
    }
  }
}
