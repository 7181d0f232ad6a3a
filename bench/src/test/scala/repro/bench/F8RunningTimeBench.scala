package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.harness.{Sweep, Tables}

/** T8 (paper Fig. 8): allocation running time.
  *
  * Paper reference (12M accounts, Python): Shard Scheduler 3447.9s, METIS
  * 422.7s, G-TxAllo 122.3s (67.6s of which is Louvain init). Absolute times
  * are not comparable (JVM vs Python, reduced scale); the reproduction target
  * is that G-TxAllo stays competitive with the baselines and that A-TxAllo
  * (T10) is orders of magnitude faster than all of them. The transaction-level
  * scheduler's per-tx Python overhead does not transfer to compiled Scala, so
  * its relative position is expected to shift (documented in EXPERIMENTS.md).
  */
class F8RunningTimeBench extends AnyFunSuite {

  test("T8: print running time table") {
    println(Tables.sweepTables("T8")(BenchData.sweep))
  }

  test("T8 shape: every allocator reports a plausible wall-clock time") {
    BenchData.sweep.rows.foreach { r =>
      assert(r.allocNanos >= 0 && r.allocNanos < 600000L * 1000000, s"$r")
    }
  }

  test("T8 shape: G-TxAllo completes within the block interval at bench scale") {
    // Paper Section IV-C: t_r should be below the ~13s Ethereum block time to
    // allow per-block updates; at bench scale G-TxAllo must be well inside.
    for (eta <- Sweep.Etas) {
      val ms = BenchData.row(Sweep.MethodTxAllo, 60, eta).allocNanos / 1e6
      assert(ms < 120000, s"G-TxAllo too slow: $ms ms")
    }
  }
}
