package repro.harness

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
import repro.alloc.Alloc
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
    trainFrac: Double = 0.9,
    nSteps: Int = 12,
    hybridGaps: Seq[Int] = Seq(3, 5, 10),
    seed: Long = 42L)

/** One time step of one strategy. */
final case class StepRecord(step: Int, normThroughput: Double, gamma: Double,
                            updateMillis: Long, usedGlobal: Boolean)

final case class StrategyRun(name: String, steps: Seq[StepRecord]) {
  def avgThroughput: Double = steps.map(_.normThroughput).sum / steps.length
  def avgUpdateMillis: Double = steps.map(_.updateMillis.toDouble).sum / steps.length
}

final case class EvolutionResult(cfg: EvolutionConfig, nTx: Long,
                                 bootstrapMillis: Long, runs: Seq[StrategyRun])

object Evolution {

  def run(spark: SparkSession, cfg: EvolutionConfig): EvolutionResult = {
    val params = ChainParams.atScale(cfg.sf, cfg.seed)
    val txs = TxGen.transactions(spark, params).cache()
    val nTx = txs.count()

    val trainBlocks = (params.nBlocks * cfg.trainFrac).toLong
    val stepBlocks = math.max(1L, (params.nBlocks - trainBlocks) / cfg.nSteps)

    val trainTxs = txs.where(col("block") < trainBlocks)
    val baseGraph = TxGraph.fromTxs(trainTxs)
    val bootstrap = GTxAllo.run(baseGraph, TxAlloParams.default(baseGraph, cfg.k, cfg.eta))

    // Pre-collect each step's edge delta, V-hat and exploded pairs once; all
    // strategies replay the same stream.
    final case class Step(
        txAcc: org.apache.spark.sql.DataFrame,
        edges: IndexedSeq[(Long, Long, Double)],
        active: Set[Long])
    val steps = (0 until cfg.nSteps).map { t =>
      val lo = trainBlocks + t * stepBlocks
      val hi = lo + stepBlocks
      val stepTxs = txs.where(col("block") >= lo && col("block") < hi)
      val txAcc = TxGen.txAccounts(stepTxs).cache()
      val edges = TxGraph
        .edges(stepTxs)
        .collect()
        .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
        .toIndexedSeq
      val active = txAcc.select("account").distinct().collect().map(_.getLong(0)).toSet
      Step(txAcc, edges, active)
    }

    val strategies: Seq[(String, Option[Int])] =
      Seq(("pure-G", Some(1)), ("pure-A", None)) ++
        cfg.hybridGaps.map(g => (s"hybrid-g$g", Some(g)))

    val runs = strategies.map { case (name, gapOpt) =>
      var graph = baseGraph
      var assign = bootstrap.toMap
      val recs = steps.zipWithIndex.map { case (step, t) =>
        // The update time covers the merge as well as the allocation: a
        // deployment does both per step.
        val t0 = System.nanoTime()
        graph = Graph.merge(graph, step.edges)
        val p = TxAlloParams.default(graph, cfg.k, cfg.eta)
        val useGlobal = gapOpt.exists(g => (t + 1) % g == 0)
        val res =
          if (useGlobal) GTxAllo.run(graph, p)
          else ATxAllo.run(graph, assign, step.active, p)
        val updateMillis = (System.nanoTime() - t0) / 1000000
        assign = res.toMap
        val m = Metrics.evaluate(step.txAcc, Alloc.toDf(spark, assign), cfg.k, cfg.eta)
        StepRecord(t, m.normThroughput, m.gamma, updateMillis, useGlobal)
      }
      StrategyRun(name, recs)
    }

    steps.foreach(s => s.txAcc.unpersist())
    txs.unpersist()
    EvolutionResult(cfg, nTx, bootstrap.millis, runs)
  }
}
