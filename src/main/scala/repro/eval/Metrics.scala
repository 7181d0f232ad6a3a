package repro.eval

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.types.LongType
import repro.alloc.Alloc
import repro.core.{AllocState, Graph}
import scala.collection.mutable

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

/** Computes the paper's blockchain-level metrics on the driver. Each
  * transaction's shard set (Definition `T_i = { Tx | A_Tx intersect A_i !=
  * empty }`) and its mu, the number of distinct shards, give the exact counts
  * c(shard, mu) of transactions touching `shard` and mu shards in all; every
  * metric is arithmetic on those counts in (shard, mu) order, so the result
  * does not depend on the order, partitioning or repetition of the input
  * rows. `repro.eval.MetricsSpec` checks the outputs against DuckDB
  * (`repro.Oracle`).
  */
object Metrics {

  /** The DataFrame form of [[evaluateIncidence]]: reads both DataFrames once
    * and groups the pairs by txId.
    *
    * @param txAccounts (txId: Long, account: Long) exploded transaction pairs
    * @param alloc      (account: Long, shard: Int) full account-shard mapping
    * @param k          number of shards
    * @param eta        cross-shard workload factor
    * @param lambdaOpt  per-shard capacity; defaults to the paper's |T| / k
    * @throws IllegalArgumentException as [[evaluateIncidence]] does, or if a
    *         txId or an account is null or either column is not `long`
    */
  def evaluate(txAccounts: DataFrame, alloc: DataFrame, k: Int, eta: Double,
               lambdaOpt: Option[Double] = None): MetricsResult = {
    val (ids, shard) = Alloc.arrays(alloc)
    val (txId, account) = pairs(txAccounts)
    val (tx, row) = Graph.rank(txId, 0, txId.length)
    // Counting sort of the pairs by transaction row.
    val offsets = new Array[Int](tx.length + 1)
    row.foreach(t => offsets(t + 1) += 1)
    for (t <- 0 until tx.length) offsets(t + 1) += offsets(t)
    val next = offsets.clone()
    val accounts = new Array[Long](account.length)
    for (i <- account.indices) { accounts(next(row(i))) = account(i); next(row(i)) += 1 }
    evaluateIncidence(offsets, accounts, ids, shard, k, eta, lambdaOpt)
  }

  /** The `(txId, account)` pairs as two primitive arrays, in partition
    * order. Each partition packs its pairs into two arrays, so the driver
    * receives a few arrays instead of a row object with two boxed values per
    * pair; on a 240K-pair ledger that makes the evaluation faster and its
    * time steadier from run to run (`BENCH_9.json`). The pairs are read
    * through the input's own plan, which a cached input plans only once; a
    * projection would be planned again on every call.
    *
    * @throws IllegalArgumentException if a txId or an account is null, or
    *   either column is not `long`
    */
  private def pairs(txAccounts: DataFrame): (Array[Long], Array[Long]) = {
    val Seq(t, a) = Seq("txId", "account").map { c =>
      require(txAccounts.schema(c).dataType == LongType, s"$c is ${txAccounts.schema(c).dataType.simpleString}, not bigint")
      txAccounts.schema.fieldIndex(c)
    }
    val parts = txAccounts
      .queryExecution.toRdd.mapPartitions { rows =>
        val txId = mutable.ArrayBuilder.make[Long]
        val account = mutable.ArrayBuilder.make[Long]
        var nulls = 0L
        rows.foreach { r =>
          if (r.isNullAt(t) || r.isNullAt(a)) nulls += 1
          else { txId += r.getLong(t); account += r.getLong(a) }
        }
        Iterator((txId.result(), account.result(), nulls))
      }.collect()
    require(parts.forall(_._3 == 0), "a txId or an account is null")
    (Array.concat(parts.toSeq.map(_._1): _*), Array.concat(parts.toSeq.map(_._2): _*))
  }

  /** The metrics of a mapping over a flat incidence: transaction t has the
    * accounts `accounts(offsets(t) until offsets(t + 1))`, for t in
    * [0, offsets.length - 1), in any order; `offsets` need not start at 0, so
    * a slice of a ledger's offsets evaluates those transactions. An account
    * repeated within a transaction counts once.
    *
    * @param ids    mapped accounts, strictly ascending
    * @param shard  shard of `ids(i)`
    * @throws IllegalArgumentException if an account is mapped twice or to a
    *         shard outside [0, k), a transaction's account is not mapped or a
    *         transaction has no account, or there is no transaction
    */
  def evaluateIncidence(offsets: Array[Int], accounts: Array[Long], ids: Array[Long], shard: Array[Int],
                        k: Int, eta: Double, lambdaOpt: Option[Double] = None): MetricsResult = {
    require(ids.length == shard.length, s"${ids.length} ids, ${shard.length} shards")
    for (i <- ids.indices) {
      require(i == 0 || ids(i - 1) != ids(i), s"account ${ids(i)} mapped twice")
      require(i == 0 || ids(i - 1) < ids(i), s"mapped accounts not ascending at account ${ids(i)}")
      require(shard(i) >= 0 && shard(i) < k, s"account ${ids(i)} mapped to shard ${shard(i)} outside [0, $k)")
    }
    val nTx = math.max(offsets.length - 1, 0)
    require(nTx > 0, "no transactions to evaluate")

    // The shard of every account entry, at j - lo: one lookup per distinct account.
    val (lo, hi) = (offsets(0), offsets(nTx))
    val (distinct, entry) = Graph.rank(accounts, lo, hi)
    val shardOf = distinct.map { a =>
      val x = java.util.Arrays.binarySearch(ids, a)
      require(x >= 0, s"account $a is not mapped")
      shard(x)
    }

    // c(shard, mu) at (mu - 1) * k + shard; mu is at most k and at most a
    // transaction's account count.
    var maxMu = 0
    for (t <- 0 until nTx) maxMu = math.max(maxMu, math.min(k, offsets(t + 1) - offsets(t)))
    val counts = new Array[Long](maxMu * k)
    val seen = new Array[Boolean](k)
    val touched = new Array[Int](k)
    for (t <- 0 until nTx) {
      var mu = 0
      var j = offsets(t)
      while (j < offsets(t + 1)) {
        val s = shardOf(entry(j - lo))
        if (!seen(s)) { seen(s) = true; touched(mu) = s; mu += 1 }
        j += 1
      }
      require(mu > 0, s"transaction row $t has no account")
      for (i <- 0 until mu) { counts((mu - 1) * k + touched(i)) += 1; seen(touched(i)) = false }
    }

    val intra = new Array[Long](k)
    val cross = new Array[Long](k)
    val lamHat = new Array[Double](k)
    for (s <- 0 until k; mu <- 1 to maxMu) {
      val c = counts((mu - 1) * k + s)
      if (c > 0) {
        if (mu == 1) intra(s) = c else cross(s) += c
        lamHat(s) += c.toDouble / mu
      }
    }
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
