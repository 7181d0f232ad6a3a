package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.harness.{Sweep, Tables}

/** T4 (paper Fig. 4): per-shard normalized workload case study (k=20, eta=2).
  *
  * Paper shape: hash has the largest total workload; METIS (and hash, and to
  * a lesser degree G-TxAllo) shows one overloaded shard holding the hub
  * account; Shard Scheduler is flat; METIS leaves under-utilized shards.
  */
class F4WorkloadDistBench extends AnyFunSuite {

  private val k = Sweep.CaseStudyK
  private val eta = Sweep.CaseStudyEta

  private def norm(method: String): Seq[Double] = {
    val r = BenchData.row(method, k, eta)
    r.metrics.shards.map(_.sigma / r.metrics.lambda)
  }

  test("T4: print per-shard workload distribution") {
    println(Tables.sweepTables("T4")(BenchData.sweep))
  }

  test("T4 shape: hash has the largest total workload (most cross-shard txs)") {
    val totals = Sweep.Methods.map(m => m -> norm(m).sum).toMap
    for (m <- Seq(Sweep.MethodMetis, Sweep.MethodScheduler, Sweep.MethodTxAllo))
      assert(totals(m) < totals(Sweep.MethodHash), s"$m total ${totals(m)} vs hash")
  }

  test("T4 shape: the Scheduler's profile is the flattest (no overloaded shard)") {
    val schedMax = norm(Sweep.MethodScheduler).max
    assert(schedMax <= norm(Sweep.MethodMetis).max * 1.10 + 1e-9, s"sched max $schedMax")
    assert(schedMax <= norm(Sweep.MethodHash).max + 1e-9, s"sched max $schedMax")
    // and away from the peak the profile is tight around its median
    val rest = norm(Sweep.MethodScheduler).sorted.dropRight(1)
    assert(rest.max <= rest.min * 1.5, s"scheduler body not flat: $rest")
  }

  test("T4 shape: METIS shows an overloaded hub shard") {
    val loads = norm(Sweep.MethodMetis)
    assert(loads.max > 1.3, s"expected an over-capacity shard for METIS, max=${loads.max}")
  }

  test("T4 shape: METIS workload spread is wide (weight balance != workload balance)") {
    // Paper Fig. 4b: shards below the lambda line while the hub shard
    // overloads. At SF=0.1 the aggregate overload lifts every shard above
    // lambda, but the tell-tale spread (max >> min) persists.
    val loads = norm(Sweep.MethodMetis)
    assert(loads.max >= loads.min * 2.0, s"METIS spread too tight: $loads")
  }
}
