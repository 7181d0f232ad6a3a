package repro.harness

import repro.chain.Incidence
import repro.core.{ATxAllo, GTxAllo, Graph, TxAlloParams, TxGraph}
import repro.eval.Metrics

/** One time step of one strategy. */
final case class StepRecord(normThroughput: Double, updateNanos: Long, usedGlobal: Boolean)

final case class StrategyRun(name: String, steps: Seq[StepRecord]) {
  def avgThroughput: Double = steps.map(_.normThroughput).sum / steps.length
  def avgUpdateMillis: Double = steps.map(_.updateNanos / 1e6).sum / steps.length
}

final case class EvolutionResult(nTx: Long, bootstrapNanos: Long, runs: Seq[StrategyRun])

/** The A-TxAllo evolution study (paper Figs. 9-10 -> tables T9-T10), on the
  * driver, over one collected ledger. The ledger's blocks are split 90/10
  * chronologically: G-TxAllo bootstraps on the first 90%, then the last 10%
  * streams in `Steps` equal time steps (tau1 = one step); the remainder
  * blocks that do not fill a step are dropped. Strategies: rerun G-TxAllo
  * every step ("pure-G"), run A-TxAllo every step ("pure-A"), or hybrid with
  * a global refresh every `gap` steps (the paper's tau2 / tau1 ratios,
  * scaled — DESIGN.md).
  */
object Evolution {

  /** The study's k, eta and step count, and the hybrid strategies' tau2 / tau1. */
  val K = 20
  val Eta = 2.0
  val Steps = 12
  val HybridGaps: Seq[Int] = Seq(3, 5, 10)

  /** Chronological share of the ledger's blocks the bootstrap runs on. */
  val TrainFrac = 0.9

  /** @param ledger the ledger in txId order; the bootstrap and every step
    *   build their graphs from, and are evaluated on, slices of it
    * @throws IllegalArgumentException if the blocks after the bootstrap are
    *   fewer than `Steps`, before any work
    */
  def run(ledger: Incidence): EvolutionResult = {
    val accounts = ledger.accounts
    // The offsets of the transactions in blocks [lo, hi).
    def blocks(lo: Long, hi: Long): Array[Int] = ledger.offsets.slice(ledger.firstTxOf(lo), ledger.firstTxOf(hi) + 1)

    val nBlocks = ledger.block.lastOption.fold(0L)(_ + 1)
    val trainBlocks = (nBlocks * TrainFrac).toLong
    require(nBlocks - trainBlocks >= Steps,
            s"the ${nBlocks - trainBlocks} blocks after the bootstrap cannot fill $Steps steps")
    val stepBlocks = (nBlocks - trainBlocks) / Steps

    var graph = TxGraph.fromIncidence(blocks(0, trainBlocks), accounts)
    val bootstrap = GTxAllo.run(graph, TxAlloParams.default(graph, K, Eta))

    val strategies: Seq[(String, Option[Int])] =
      Seq(("pure-G", Some(1)), ("pure-A", None)) ++
        HybridGaps.map(g => (s"hybrid-g$g", Some(g)))
    val assigns = Array.fill(strategies.size)(bootstrap.toMap)
    val records = Array.fill(strategies.size)(Vector.newBuilder[StepRecord])

    for (t <- 0 until Steps) {
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
      val p = TxAlloParams.default(graph, K, Eta)

      for (((_, gapOpt), i) <- strategies.zipWithIndex) {
        val useGlobal = gapOpt.exists(g => (t + 1) % g == 0)
        val t1 = System.nanoTime()
        val res =
          if (useGlobal) GTxAllo.run(graph, p)
          else ATxAllo.run(graph, assigns(i), active, p)
        val updateNanos = sharedNanos + System.nanoTime() - t1
        assigns(i) = res.toMap
        // res.ids are the merged graph's accounts, so the mapping is complete;
        // evaluateIncidence rejects a shard outside [0, k).
        val m = Metrics.evaluateIncidence(stepOffsets, accounts, res.ids, res.assign, K, Eta)
        records(i) += StepRecord(m.normThroughput, updateNanos, useGlobal)
      }
    }

    val runs = strategies.zip(records).map { case ((name, _), recs) => StrategyRun(name, recs.result()) }
    EvolutionResult(ledger.nTx.toLong, bootstrap.nanos, runs)
  }
}
