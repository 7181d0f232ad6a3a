package repro.harness

import java.util.IdentityHashMap
import repro.chain.Incidence
import repro.core.{ATxAllo, AllocResult, GTxAllo, Graph, TxAlloParams, TxGraph}
import repro.eval.{Metrics, MetricsResult}

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

    /** Step t for strategies holding `prevs`, those with `refresh` set running
      * G-TxAllo: the merged graph, and per strategy its result and record. As
      * both algorithms are deterministic, G-TxAllo runs at most once, A-TxAllo
      * once per distinct previous instance, and each result is evaluated once.
      * An update time is the shared step work, which a deployment does too,
      * plus the time of the call used.
      */
    def step(t: Int, prevs: Seq[AllocResult], refresh: Seq[Boolean]): (Graph, Seq[(AllocResult, StepRecord)]) = {
      val offsets = blocks(trainBlocks + t * stepBlocks, trainBlocks + (t + 1) * stepBlocks)
      val t0 = System.nanoTime()
      val delta = TxGraph.fromIncidence(offsets, accounts)
      // V-hat, the step's accounts, are the step graph's nodes.
      val active = delta.ids.toSet
      val merged = Graph.merge(graph, TxGraph.edgeRows(delta))
      val sharedNanos = System.nanoTime() - t0
      val p = TxAlloParams.default(merged, K, Eta)
      // res.ids are the merged graph's accounts, so the mapping is complete;
      // evaluateIncidence rejects a shard outside [0, k).
      def evaluated(res: AllocResult) = (res, Metrics.evaluateIncidence(offsets, accounts, res.ids, res.assign, K, Eta))
      lazy val global = evaluated(GTxAllo.run(merged, p))
      val adapted = new IdentityHashMap[AllocResult, (AllocResult, MetricsResult)]
      val used = prevs.zip(refresh).map { case (prev, g) =>
        val (res, m) = if (g) global else adapted.computeIfAbsent(prev, _ => evaluated(ATxAllo.run(merged, prev.toMap, active, p)))
        (res, StepRecord(m.normThroughput, sharedNanos + res.nanos, g))
      }
      (merged, used)
    }

    // Untimed warm-up, so that step 0 pays no class loading or JIT compilation.
    step(0, Seq(bootstrap), Seq(false))

    val strategies: Seq[(String, Option[Int])] =
      Seq(("pure-G", Some(1)), ("pure-A", None)) ++ HybridGaps.map(g => (s"hybrid-g$g", Some(g)))
    // Every strategy starts from the one bootstrap instance, so strategies
    // that hold the same mapping hold the same instance.
    var prevs = strategies.map(_ => bootstrap)
    val records = (0 until Steps).map { t =>
      val (merged, used) = step(t, prevs, strategies.map(_._2.exists(g => (t + 1) % g == 0)))
      graph = merged
      prevs = used.map(_._1)
      used.map(_._2)
    }

    val runs = strategies.zip(records.transpose).map { case ((name, _), steps) => StrategyRun(name, steps) }
    EvolutionResult(ledger.nTx.toLong, bootstrap.nanos, runs)
  }
}
