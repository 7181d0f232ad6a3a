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

/** Computes the paper's blockchain-level metrics with Spark DataFrame
  * aggregations. Every transaction's mu (number of involved shards) comes
  * from joining the exploded (txId, account) pairs with the allocation —
  * exactly Definition `T_i = { Tx | A_Tx intersect A_i != empty }`.
  *
  * All aggregates have straightforward SQL equivalents and are checked
  * against DuckDB by `repro.eval.MetricsSpec` via `repro.Oracle`.
  */
object Metrics {

  /** @param txAccounts (txId: Long, account: Long) exploded transaction pairs
    * @param alloc      (account: Long, shard: Int) full account-shard mapping
    * @param k          number of shards
    * @param eta        cross-shard workload factor
    * @param lambdaOpt  per-shard capacity; defaults to the paper's |T| / k
    */
  def evaluate(txAccounts: DataFrame, alloc: DataFrame, k: Int, eta: Double,
               lambdaOpt: Option[Double] = None): MetricsResult = {
    // Distinct (txId, shard) incidence, then mu per transaction.
    val txShard = txAccounts
      .join(alloc, "account")
      .select(col("txId"), col("shard"))
      .distinct()
    val mu = txShard.groupBy("txId").agg(count(lit(1)) as "mu")

    val Array(nTxRow) = mu
      .agg(count(lit(1)) as "n",
           coalesce(sum(when(col("mu") > 1, 1L).otherwise(0L)), lit(0L)) as "nCross")
      .collect()
    val nTx = nTxRow.getLong(0)
    val nCross = nTxRow.getLong(1)
    require(nTx > 0, "no transactions survived the allocation join — incomplete allocation?")
    val gamma = nCross.toDouble / nTx
    val lambda = lambdaOpt.getOrElse(nTx.toDouble / k)

    val perShard = txShard
      .join(mu, "txId")
      .groupBy("shard")
      .agg(
        sum(when(col("mu") === 1, 1L).otherwise(0L)) as "txIntra",
        sum(when(col("mu") > 1, 1L).otherwise(0L)) as "txCross",
        sum(lit(1.0) / col("mu")) as "lamHat")
      .collect()
      .map(r => r.getInt(0) -> ((r.getLong(1), r.getLong(2), r.getDouble(3))))
      .toMap

    val shards = (0 until k).map { s =>
      val (intra, cross, lamHat) = perShard.getOrElse(s, (0L, 0L, 0.0))
      ShardLoad(s, intra, cross, intra + eta * cross, lamHat)
    }

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
