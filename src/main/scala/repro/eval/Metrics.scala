package repro.eval

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.AllocState

/** Per-shard load of an allocation under the blockchain model (Section III-B).
  *
  * @param shard   shard index
  * @param txIntra number of intra-shard transactions processed here
  * @param txCross number of cross-shard transactions this shard participates in
  * @param sigma   workload = txIntra + eta * txCross
  * @param lamHat  capacity-sufficient throughput = sum over processed tx of 1/mu
  */
final case class ShardLoad(shard: Int, txIntra: Long, txCross: Long,
                           sigma: Double, lamHat: Double)

/** Blockchain-level evaluation of an account-shard mapping (Eqs. 1-4).
  *
  * @param gamma          cross-shard transaction ratio
  * @param rho            population std-dev of per-shard workloads (Eq. 1)
  * @param throughput     Lambda (Eq. 2 with the Eq. 3 capacity clip)
  * @param normThroughput Lambda / lambda — "x times a non-sharded chain"
  * @param avgLatency     mean of per-shard average latencies (Eq. 4)
  * @param worstLatency   latency of the most loaded shard
  */
final case class MetricsResult(
    k: Int, eta: Double, lambda: Double, nTx: Long,
    gamma: Double, rho: Double, throughput: Double, normThroughput: Double,
    avgLatency: Double, worstLatency: Double,
    shards: Seq[ShardLoad])

/** Computes the paper's blockchain-level metrics in one Spark action. Joining
  * the exploded (txId, account) pairs with the allocation gives each
  * transaction's shard set (Definition `T_i = { Tx | A_Tx intersect A_i !=
  * empty }`) and its mu, the number of distinct shards. Spark returns only the
  * exact counts c(shard, mu) of transactions touching `shard` and mu shards
  * in all (at most k * max mu rows); every metric is driver arithmetic on them
  * in (shard, mu) order, so the result does not depend on Spark partitioning.
  * `repro.eval.MetricsSpec` checks the outputs against DuckDB (`repro.Oracle`).
  */
object Metrics {

  /** @param txAccounts (txId: Long, account: Long) exploded transaction pairs
    * @param alloc      (account: Long, shard: Int) full account-shard mapping
    * @param k          number of shards
    * @param eta        cross-shard workload factor
    * @param lambdaOpt  per-shard capacity; defaults to the paper's |T| / k
    * @throws IllegalArgumentException if a transaction's account maps to a
    *         shard outside [0, k), or no transaction joins the allocation
    */
  def evaluate(txAccounts: DataFrame, alloc: DataFrame, k: Int, eta: Double,
               lambdaOpt: Option[Double] = None): MetricsResult = {
    val counts = txAccounts
      .join(alloc, "account")
      .groupBy("txId").agg(collect_set("shard") as "shards")
      .select(explode(col("shards")) as "shard", size(col("shards")) as "mu")
      .groupBy("shard", "mu").count()
      .collect()
      .map(r => (r.getInt(0), r.getInt(1), r.getLong(2)))
      .sorted
    counts.foreach { case (s, _, _) => require(s >= 0 && s < k, s"shard $s outside [0, $k)") }

    val intra = new Array[Long](k)
    val cross = new Array[Long](k)
    val lamHat = new Array[Double](k)
    for ((s, mu, c) <- counts) {
      if (mu == 1) intra(s) = c else cross(s) += c
      lamHat(s) += c.toDouble / mu
    }
    // A transaction with mu shards is counted in mu rows.
    val nTx = counts.groupMapReduce(_._2)(_._3)(_ + _).map { case (mu, c) => c / mu }.sum
    require(nTx > 0, "no transactions survived the allocation join — incomplete allocation?")
    val gamma = (nTx - intra.sum).toDouble / nTx
    val lambda = lambdaOpt.getOrElse(nTx.toDouble / k)

    val shards =
      (0 until k).map(s => ShardLoad(s, intra(s), cross(s), intra(s) + eta * cross(s), lamHat(s)))

    val sigmas = shards.map(_.sigma)
    val mean = sigmas.sum / k
    val rho = math.sqrt(sigmas.map(x => (x - mean) * (x - mean)).sum / k)
    val throughput = shards.map(sl => AllocState.throughput(sl.sigma, sl.lamHat, lambda)).sum
    val latencies = sigmas.map(s => Latency.avgLatency(s / lambda))

    MetricsResult(
      k = k, eta = eta, lambda = lambda, nTx = nTx,
      gamma = gamma, rho = rho,
      throughput = throughput, normThroughput = throughput / lambda,
      avgLatency = latencies.sum / k, worstLatency = latencies.max,
      shards = shards)
  }
}
