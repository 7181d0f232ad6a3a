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
    nSteps: Int = 12,
    hybridGaps: Seq[Int] = Seq(3, 5, 10))

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

  /** Chronological share of the ledger's blocks the bootstrap runs on. */
  val TrainFrac = 0.9

  def run(spark: SparkSession, cfg: EvolutionConfig): EvolutionResult = {
    val params = ChainParams.atScale(cfg.sf)
    val txs = TxGen.transactions(spark, params).cache()
    val nTx = txs.count()

    val trainBlocks = (params.nBlocks * TrainFrac).toLong
    val stepBlocks = math.max(1L, (params.nBlocks - trainBlocks) / cfg.nSteps)

    var graph = TxGraph.fromTxs(txs.where(col("block") < trainBlocks))
    val bootstrap = GTxAllo.run(graph, TxAlloParams.default(graph, cfg.k, cfg.eta))

    val strategies: Seq[(String, Option[Int])] =
      Seq(("pure-G", Some(1)), ("pure-A", None)) ++
        cfg.hybridGaps.map(g => (s"hybrid-g$g", Some(g)))
    val assigns = Array.fill(strategies.size)(bootstrap.toMap)
    val records = Array.fill(strategies.size)(Vector.newBuilder[StepRecord])

    for (t <- 0 until cfg.nSteps) {
      val lo = trainBlocks + t * stepBlocks
      val stepTxs = txs.where(col("block") >= lo && col("block") < lo + stepBlocks)
      val edges = TxGraph.edges(stepTxs).collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
      // V-hat, the step's accounts: each is an edge endpoint, since a
      // single-account transaction becomes a self-loop row.
      val active = edges.iterator.flatMap(e => Iterator(e._1, e._2)).toSet
      // Each strategy's update time includes the shared merge, as a deployment's would.
      val t0 = System.nanoTime()
      graph = Graph.merge(graph, edges)
      val mergeNanos = System.nanoTime() - t0
      val p = TxAlloParams.default(graph, cfg.k, cfg.eta)
      val stepAcc = TxGen.txAccounts(stepTxs)

      for (((_, gapOpt), i) <- strategies.zipWithIndex) {
        val useGlobal = gapOpt.exists(g => (t + 1) % g == 0)
        val t1 = System.nanoTime()
        val res =
          if (useGlobal) GTxAllo.run(graph, p)
          else ATxAllo.run(graph, assigns(i), active, p)
        val updateMillis = (mergeNanos + System.nanoTime() - t1) / 1000000
        assigns(i) = res.toMap
        Alloc.requireValid(assigns(i), graph.ids, cfg.k)
        val m = Metrics.evaluate(stepAcc, Alloc.toDf(spark, assigns(i)), cfg.k, cfg.eta)
        records(i) += StepRecord(t, m.normThroughput, m.gamma, updateMillis, useGlobal)
      }
    }

    txs.unpersist()
    val runs = strategies.zip(records).map { case ((name, _), recs) => StrategyRun(name, recs.result()) }
    EvolutionResult(cfg, nTx, bootstrap.millis, runs)
  }
}
