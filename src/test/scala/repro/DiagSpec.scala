package repro

import org.scalatest.Tag
import repro.chain.{ChainParams, TxGen}
import repro.core._

object Diag extends Tag("repro.Diag")

/** Whole-pipeline invariants of the graph model on generated ledgers: for a
  * complete mapping, sum_i lamHat_i is the total weight W and
  * sum_i sigma_i = W (1 + (2 eta - 1) cut), because every intra edge counts
  * once and every cut edge eta times on each side; G-TxAllo's reported
  * throughput is the one its mapping has, and never below its start.
  */
class DiagSpec extends SparkSpec {

  private def assertClose(actual: Double, expected: Double, what: String): Unit =
    assert(math.abs(actual - expected) <= 1e-9 * math.abs(expected), s"$what: $actual vs $expected")

  /** The lamHat and sigma identities for a complete mapping `assign`. */
  private def assertWorkloadIdentities(g: Graph, params: TxAlloParams, assign: Array[Int], name: String): Unit = {
    val st = AllocState.of(g, params, assign)
    assertClose(st.lamHat.sum, g.totalWeight, s"$name sum lamHat")
    val cut = GraphMetrics.cutRatio(g, assign)
    assertClose(st.sigma.sum, g.totalWeight * (1 + (2 * params.eta - 1) * cut), s"$name sum sigma")
  }

  /** G-TxAllo's final throughput is that of its mapping and not below the
    * throughput after the join phase.
    */
  private def assertReport(g: Graph, params: TxAlloParams, res: AllocResult): Unit = {
    assert(AllocState.of(g, params, res.assign).totalThroughput == res.finalThroughput)
    assert(res.finalThroughput >= res.initThroughput, s"${res.finalThroughput} < ${res.initThroughput}")
  }

  test("diagnose hub shard packing", Diag) {
    val g = TxGraph.fromTxs(TxGen.transactions(spark, ChainParams.atScale(0.02, seed = 42)))
    val params = TxAlloParams.default(g, 20, 2.0)
    val res = GTxAllo.run(g, params)
    assertWorkloadIdentities(g, params, res.assign, "G-TxAllo")
    assertReport(g, params, res)
  }

  test("compare graph-model throughput: TxAllo vs METIS partition", Diag) {
    val g = TxGraph.fromTxs(TxGen.transactions(spark, ChainParams.atScale(0.01, seed = 42)))
    val params = TxAlloParams.default(g, 10, 4.0)
    val tx = GTxAllo.run(g, params)
    assertWorkloadIdentities(g, params, tx.assign, "G-TxAllo")
    assertWorkloadIdentities(g, params, repro.metis.Metis.partition(g, params.k), "METIS")
    assertReport(g, params, tx)
  }
}
