package repro

import org.scalatest.Tag
import repro.chain.{ChainParams, TxGen}
import repro.core._

object Diag extends Tag("repro.Diag")

/** Diagnostic (excluded from CI assertions): prints Louvain/TxAllo structure
  * on the bench ledger. Run with: testOnly repro.DiagSpec
  */
class DiagSpec extends SparkSpec {

  test("diagnose hub shard packing", Diag) {
    val p = ChainParams.atScale(0.02, seed = 42)
    val txs = TxGen.transactions(spark, p)
    val g = TxGraph.fromTxs(txs)
    println(s"graph n=${g.n} totalWeight=${g.totalWeight}")
    val hub = g.indexOf(0L)
    println(s"hub strength=${g.strength(hub)} (share=${g.strength(hub) / g.totalWeight})")

    val louvain = Louvain.cluster(g)
    val l = louvain.max + 1
    val wl = AllocState.of(g, TxAlloParams.default(g, l, 2.0), louvain).sigma
    val top = (0 until l).sortBy(-wl(_)).take(10)
    println(s"louvain: l=$l communities; top-10 workload share=${top.map(c => f"${wl(c) / g.totalWeight}%.3f").mkString(",")}")
    println(s"hub community workload share=${wl(louvain(hub)) / g.totalWeight}")
    val hubCommSize = louvain.count(_ == louvain(hub))
    println(s"hub community size=$hubCommSize nodes")

    val k = 20
    val params = TxAlloParams.default(g, k, 2.0)
    val res = GTxAllo.run(g, params)
    val sig = AllocState.of(g, params, res.assign).sigma
    val lambda = g.totalWeight / k
    println(s"gtxallo shard norm workloads=${sig.map(s => f"${s / lambda}%.2f").mkString(",")}")
    val hubShard = res.assign(hub)
    println(s"hub shard=$hubShard size=${res.assign.count(_ == hubShard)} nodes")
    println(s"init thr=${res.initThroughput / lambda} final thr=${res.finalThroughput / lambda} sweeps=${res.sweeps}")
  }

  test("compare graph-model throughput: TxAllo vs METIS partition", Diag) {
    val p = ChainParams.atScale(0.01, seed = 42)
    val txs = TxGen.transactions(spark, p)
    val g = TxGraph.fromTxs(txs)
    val k = 10; val eta = 4.0
    val params = TxAlloParams.default(g, k, eta)
    val tx = GTxAllo.run(g, params)
    val (metisMap, _) = repro.metis.Metis.allocate(g, k)
    val metisAssign = g.ids.map(metisMap)
    def modelThr(assign: Array[Int]): Double = AllocState.of(g, params, assign).totalThroughput
    val lambda = params.lambda
    println(s"[cmp] graph-model thr: txallo=${tx.finalThroughput / lambda} " +
      s"metis=${modelThr(metisAssign) / lambda} sweeps=${tx.sweeps}")
    println(s"[cmp] cut: txallo=${GraphMetrics.cutRatio(g, tx.assign)} " +
      s"metis=${GraphMetrics.cutRatio(g, metisAssign)}")
    println(s"[cmp] txallo norm wl=${AllocState.of(g, params, tx.assign).sigma.map(x => f"${x / lambda}%.2f").mkString(",")}")
    println(s"[cmp] metis  norm wl=${AllocState.of(g, params, metisAssign).sigma.map(x => f"${x / lambda}%.2f").mkString(",")}")
  }
}
