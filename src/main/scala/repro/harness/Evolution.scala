package repro.harness

import org.apache.spark.sql.SparkSession
import repro.chain.{ChainParams, TxGen}
import repro.core.{ATxAllo, GTxAllo, Graph, TxAlloParams, TxGraph}
import repro.eval.Metrics

/** Configuration of the A-TxAllo evolution study (paper Figs. 9-10 -> tables
  * T9-T10): the ledger is split 90/10 chronologically, G-TxAllo bootstraps on
  * the first 90%, then the last 10% streams in `nSteps` equal time steps
  * (tau1 = one step). Strategies: rerun G-TxAllo every step ("pure-G"), run
  * A-TxAllo every step ("pure-A"), or hybrid with a global refresh every
  * `gap` steps (the paper's tau2 / tau1 ratios, scaled — DESIGN.md).
  */
final case class EvolutionConfig(
    sf: Double = 0.1,
    k: Int = 20,
    eta: Double = 2.0,
    nSteps: Int = 12,
    hybridGaps: Seq[Int] = Seq(3, 5, 10))

/** One time step of one strategy. */
final case class StepRecord(normThroughput: Double, updateMillis: Long, usedGlobal: Boolean)

final case class StrategyRun(name: String, steps: Seq[StepRecord]) {
  def avgThroughput: Double = steps.map(_.normThroughput).sum / steps.length
  def avgUpdateMillis: Double = steps.map(_.updateMillis.toDouble).sum / steps.length
}

final case class EvolutionResult(cfg: EvolutionConfig, nTx: Long,
                                 bootstrapMillis: Long, runs: Seq[StrategyRun])

object Evolution {

  /** Chronological share of the ledger's blocks the bootstrap runs on. */
  val TrainFrac = 0.9

  def run(spark: SparkSession, cfg: EvolutionConfig): EvolutionResult = {
    val params = ChainParams.atScale(cfg.sf)
    // The ledger's blocks and account sets, once, in txId order; the
    // bootstrap and every step build their graphs from, and are evaluated
    // on, slices of it.
    val ledger = TxGen.collectByTxId(TxGen.transactions(spark, params))
    val nTx = ledger.nTx.toLong
    val (block, accounts) = (ledger.block, ledger.accounts)
    def firstTxOf(b: Long): Int = block.indexWhere(_ >= b) match { case -1 => block.length; case i => i }
    // The offsets of the transactions in blocks [lo, hi).
    def blocks(lo: Long, hi: Long): Array[Int] = ledger.offsets.slice(firstTxOf(lo), firstTxOf(hi) + 1)

    val trainBlocks = (params.nBlocks * TrainFrac).toLong
    val stepBlocks = math.max(1L, (params.nBlocks - trainBlocks) / cfg.nSteps)

    var graph = TxGraph.fromIncidence(blocks(0, trainBlocks), accounts)
    val bootstrap = GTxAllo.run(graph, TxAlloParams.default(graph, cfg.k, cfg.eta))

    val strategies: Seq[(String, Option[Int])] =
      Seq(("pure-G", Some(1)), ("pure-A", None)) ++
        cfg.hybridGaps.map(g => (s"hybrid-g$g", Some(g)))
    val assigns = Array.fill(strategies.size)(bootstrap.toMap)
    val records = Array.fill(strategies.size)(Vector.newBuilder[StepRecord])

    for (t <- 0 until cfg.nSteps) {
      val lo = trainBlocks + t * stepBlocks
      val stepOffsets = blocks(lo, lo + stepBlocks)
      // Each strategy's update time includes the shared step graph, V-hat and
      // merge, as a deployment's would.
      val t0 = System.nanoTime()
      val delta = TxGraph.fromIncidence(stepOffsets, accounts)
      // V-hat, the step's accounts, are the step graph's nodes.
      val active = delta.ids.toSet
      graph = Graph.merge(graph, TxGraph.edgeRows(delta))
      val sharedNanos = System.nanoTime() - t0
      val p = TxAlloParams.default(graph, cfg.k, cfg.eta)

      for (((_, gapOpt), i) <- strategies.zipWithIndex) {
        val useGlobal = gapOpt.exists(g => (t + 1) % g == 0)
        val t1 = System.nanoTime()
        val res =
          if (useGlobal) GTxAllo.run(graph, p)
          else ATxAllo.run(graph, assigns(i), active, p)
        val updateMillis = (sharedNanos + System.nanoTime() - t1) / 1000000
        assigns(i) = res.toMap
        // res.ids are the merged graph's accounts, so the mapping is complete;
        // evaluateIncidence rejects a shard outside [0, k).
        val m = Metrics.evaluateIncidence(stepOffsets, accounts, res.ids, res.assign, cfg.k, cfg.eta)
        records(i) += StepRecord(m.normThroughput, updateMillis, useGlobal)
      }
    }

    val runs = strategies.zip(records).map { case ((name, _), recs) => StrategyRun(name, recs.result()) }
    EvolutionResult(cfg, nTx, bootstrap.millis, runs)
  }
}
