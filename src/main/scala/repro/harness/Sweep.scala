package repro.harness

import repro.alloc.{Alloc, HashAllocator, ShardScheduler}
import repro.chain.Incidence
import repro.core.{GTxAllo, TxAlloParams, TxGraph}
import repro.eval.{Metrics, MetricsResult}
import repro.metis.Metis

/** One (method, k, eta) cell of the sweep, carrying every T2-T8 metric. */
final case class SweepRow(method: String, k: Int, eta: Double,
                          metrics: MetricsResult, allocNanos: Long) {
  def gamma: Double = metrics.gamma
  def rho: Double = metrics.rho
  def normThroughput: Double = metrics.normThroughput
  def avgLatency: Double = metrics.avgLatency
  def worstLatency: Double = metrics.worstLatency
  /** rho normalized by lambda so balance is comparable across k. */
  def rhoNorm: Double = metrics.rho / metrics.lambda
}

final case class SweepResult(nTx: Long, nAccounts: Long, rows: Seq[SweepRow])

/** The comparison sweep (paper Figs. 2-8 -> tables T2-T8): Hash, METIS,
  * Shard Scheduler and G-TxAllo across the (k, eta) grid, on the driver, over
  * one collected ledger. The allocators are timed individually (T8). Only
  * G-TxAllo depends on eta: the baselines allocate once per k.
  */
object Sweep {

  /** The swept grid: a representative part of the paper's k in 2..60 and eta
    * in 2..10 over the 91M-tx Ethereum ledger (DESIGN.md "Scale mapping").
    */
  val Ks: Seq[Int] = Seq(2, 10, 20, 40, 60)
  val Etas: Seq[Double] = Seq(2.0, 5.0, 10.0)

  val MethodHash = "Hash"
  val MethodMetis = "METIS"
  val MethodScheduler = "Scheduler"
  val MethodTxAllo = "G-TxAllo"
  val Methods: Seq[String] = Seq(MethodHash, MethodMetis, MethodScheduler, MethodTxAllo)

  /** The k and eta of the T4 per-shard case study (paper Fig. 4). */
  val CaseStudyK = 20
  val CaseStudyEta = 2.0

  /** A mapping as ascending account ids with their shards, and the
    * allocator's time in ns.
    */
  private type Timed = ((Array[Long], Array[Int]), Long)

  /** @param ledger the ledger in txId order: the graph, the chronological
    *   stream for the transaction-level baseline and the incidence every
    *   evaluation counts all come from it
    */
  def run(ledger: Incidence): SweepResult = {
    val (offsets, accounts) = (ledger.offsets, ledger.accounts)
    val g = TxGraph.fromIncidence(offsets, accounts)
    val txSeq = Array.tabulate(ledger.nTx)(t => (ledger.txId(t), accounts.slice(offsets(t), offsets(t + 1))))

    // Hash and METIS time no call of their own; the other two report their time.
    def timed(mapping: => (Array[Long], Array[Int])): Timed = {
      val t0 = System.nanoTime()
      val m = mapping
      (m, System.nanoTime() - t0)
    }
    def hash(k: Int): Timed = timed((g.ids, g.ids.map(HashAllocator.shard(_, k))))
    def metis(k: Int): Timed = timed((g.ids, Metis.partition(g, k)))
    // The scheduler's eta only feeds its own range check.
    def scheduler(k: Int): Timed = {
      val (m, ns) = ShardScheduler.allocate(txSeq.iterator, k, Etas.head)
      (Alloc.arrays(m), ns)
    }
    def gTxAllo(k: Int, eta: Double): Timed = {
      val res = GTxAllo.run(g, TxAlloParams.default(g, k, eta))
      ((res.ids, res.assign), res.nanos)
    }

    // Untimed warm-up, so that no timed call pays class loading or JIT compilation.
    // Hash goes first: its compilation in the background has the others' seconds to finish.
    hash(Ks.head); metis(Ks.head); scheduler(Ks.head); gTxAllo(Ks.head, Etas.head)

    // Metrics.evaluateIncidence rejects any mapping that breaks Definition 1:
    // an unmapped ledger account, an account mapped twice, a shard outside [0, k).
    val rows = Seq.newBuilder[SweepRow]
    for (k <- Ks) {
      val baselines = Seq(hash(k), metis(k), scheduler(k))
      for (eta <- Etas; (m, ((ids, shard), ns)) <- Methods.zip(baselines :+ gTxAllo(k, eta)))
        rows += SweepRow(m, k, eta, Metrics.evaluateIncidence(offsets, accounts, ids, shard, k, eta), ns)
    }
    SweepResult(ledger.nTx.toLong, g.n.toLong, rows.result())
  }
}
