package repro.harness

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.alloc.{Alloc, HashAllocator, ShardScheduler}
import repro.chain.{ChainParams, TxGen}
import repro.core.{GTxAllo, TxAlloParams, TxGraph}
import repro.eval.{Metrics, MetricsResult}
import repro.metis.Metis

/** Configuration of the G-TxAllo comparison sweep (paper Figs. 2-8 -> tables
  * T2-T8). The paper sweeps k in 2..60 and eta in 2..10 over the 91M-tx
  * Ethereum ledger; we sweep a representative grid over the synthetic ledger
  * at a configurable scale factor (DESIGN.md "Scale mapping").
  */
final case class SweepConfig(
    sf: Double = 0.1,
    ks: Seq[Int] = Seq(2, 10, 20, 40, 60),
    etas: Seq[Double] = Seq(2.0, 5.0, 10.0),
    caseStudyK: Int = 20)

/** One (method, k, eta) cell of the sweep, carrying every T2-T8 metric. */
final case class SweepRow(method: String, k: Int, eta: Double,
                          metrics: MetricsResult, allocMillis: Long) {
  def gamma: Double = metrics.gamma
  def rho: Double = metrics.rho
  def normThroughput: Double = metrics.normThroughput
  def avgLatency: Double = metrics.avgLatency
  def worstLatency: Double = metrics.worstLatency
  /** rho normalized by lambda so balance is comparable across k. */
  def rhoNorm: Double = metrics.rho / metrics.lambda
}

final case class SweepResult(cfg: SweepConfig, nTx: Long, nAccounts: Long,
                             rows: Seq[SweepRow])

/** Runs the 4-method comparison (Hash / METIS / Shard Scheduler / G-TxAllo)
  * across the (k, eta) grid. Generation, graph construction and every metric
  * evaluation run on Spark; the allocators themselves are timed individually
  * (T8). Only G-TxAllo depends on eta: the baselines allocate once per k.
  */
object Sweep {

  val MethodHash = "Hash"
  val MethodMetis = "METIS"
  val MethodScheduler = "Scheduler"
  val MethodTxAllo = "G-TxAllo"
  val Methods: Seq[String] = Seq(MethodHash, MethodMetis, MethodScheduler, MethodTxAllo)

  /** The eta of the T4 per-shard case study (paper Fig. 4). */
  val CaseStudyEta = 2.0

  def run(spark: SparkSession, cfg: SweepConfig): SweepResult = {
    val params = ChainParams.atScale(cfg.sf)
    val txs = TxGen.transactions(spark, params).cache()
    val txAcc = TxGen.txAccounts(txs).cache()
    val accountsDf = TxGen.accounts(txs).cache()
    val nTx = txs.count()
    val nAccounts = accountsDf.count()

    val g = TxGraph.fromTxs(txs)
    // Chronological stream for the transaction-level baseline.
    val txSeq = txs
      .select("txId", "accounts")
      .sort("txId")
      .collect()
      .map(r => (r.getLong(0), r.getSeq[Long](1).toArray))

    // Untimed warm-up, so that no timed call pays class loading or JIT compilation.
    val warmHash = HashAllocator.allocate(accountsDf, cfg.ks.head).cache()
    warmHash.count(); warmHash.unpersist()
    Metis.allocate(g, cfg.ks.head)
    ShardScheduler.allocate(txSeq.iterator, cfg.ks.head, cfg.etas.head)
    GTxAllo.run(g, TxAlloParams.default(g, cfg.ks.head, cfg.etas.head))

    // A driver mapping, checked against Definition 1 outside the timers.
    def checkedDf(m: Map[Long, Int], k: Int): DataFrame = { Alloc.requireValid(m, g.ids, k); Alloc.toDf(spark, m) }

    val rows = Seq.newBuilder[SweepRow]
    for (k <- cfg.ks) {
      // Hash: measure the materialization of the mapping.
      val t0 = System.nanoTime()
      val hashDf = HashAllocator.allocate(accountsDf, k).cache()
      hashDf.count()
      val hashMs = (System.nanoTime() - t0) / 1000000L

      val (metisMap, metisMs) = Metis.allocate(g, k)
      val metisDf = checkedDf(metisMap, k)
      // The scheduler's eta only feeds its own range check.
      val (schedMap, schedMs) = ShardScheduler.allocate(txSeq.iterator, k, cfg.etas.head)
      val schedDf = checkedDf(schedMap, k)

      for (eta <- cfg.etas) {
        val gtx = GTxAllo.run(g, TxAlloParams.default(g, k, eta))
        val gtxDf = checkedDf(gtx.toMap, k)

        val mappings = Seq((hashDf, hashMs), (metisDf, metisMs), (schedDf, schedMs), (gtxDf, gtx.millis))
        for ((m, (df, ms)) <- Methods.zip(mappings)) rows += SweepRow(m, k, eta, Metrics.evaluate(txAcc, df, k, eta), ms)
      }
      hashDf.unpersist()
    }
    txs.unpersist(); txAcc.unpersist(); accountsDf.unpersist()
    SweepResult(cfg, nTx, nAccounts, rows.result())
  }
}
