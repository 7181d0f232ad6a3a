package perfbench

import scala.util.hashing.MurmurHash3

import org.apache.spark.sql.DataFrame
import repro.core.Graph
import repro.eval.MetricsResult

/** The ledger collected to the driver, in txId order (= chronological). */
final class Ledger(val block: Array[Long], val accounts: Array[Array[Long]]) {
  def nTx: Int = block.length

  /** Ascending distinct accounts of the whole ledger. */
  lazy val allAccounts: Array[Long] = distinctAccounts(0, nTx)

  /** Index of the first transaction at or after block `b`. */
  def firstTxOf(b: Long): Int = {
    val i = java.util.Arrays.binarySearch(block, b)
    if (i < 0) -i - 1 else { var j = i; while (j > 0 && block(j - 1) == b) j -= 1; j }
  }

  /** Ascending distinct accounts of transactions [from, until). */
  def distinctAccounts(from: Int, until: Int): Array[Long] =
    accounts.iterator.slice(from, until).flatMap(_.iterator).toArray.distinct.sorted
}

object Ledger {
  def collect(txs: DataFrame): Ledger = {
    val rows = txs.select("txId", "block", "accounts").collect().sortBy(_.getLong(0))
    new Ledger(rows.map(_.getLong(1)), rows.map(_.getSeq[Long](2).toArray))
  }
}

/** An account -> shard mapping in ascending account id order. */
final case class Mapping(ids: Array[Long], shard: Array[Int]) {

  /** MurmurHash3 over the shards in account id order: equal mappings of the
    * same account set give equal numbers across runs, machines and commits.
    */
  def fingerprint: Int = MurmurHash3.arrayHash(shard)

  def toMap: Map[Long, Int] = ids.iterator.zip(shard.iterator).toMap
}

object Mapping {
  def fromMap(m: Map[Long, Int]): Mapping = {
    val ids = m.keys.toArray.sorted
    Mapping(ids, ids.map(m))
  }

  def fromDf(df: DataFrame): Mapping = {
    val rows = df.select("account", "shard").collect().map(r => (r.getLong(0), r.getInt(1))).sortBy(_._1)
    Mapping(rows.map(_._1), rows.map(_._2))
  }
}

/** Checks of the program's outputs, independent of the code under test.
  * Each returns None when the check passes, or a description of the failure.
  */
object Checks {

  def relClose(a: Double, b: Double, tol: Double = 1e-9): Boolean =
    math.abs(a - b) <= tol * math.max(math.max(math.abs(a), math.abs(b)), 1e-300)

  /** Input identity: every transaction distributes total edge weight 1. */
  def totalWeight(g: Graph, nTx: Long): Option[String] =
    if (relClose(g.totalWeight, nTx.toDouble)) None
    else Some(s"graph total weight ${g.totalWeight} != nTx $nTx")

  /** Definition 1: every account of `expected` (ascending, distinct) is
    * mapped exactly once, to a shard in [0, k), and nothing else is mapped.
    */
  def valid(m: Mapping, expected: Array[Long], k: Int): Option[String] =
    if (!java.util.Arrays.equals(m.ids, expected))
      Some(s"mapping covers ${m.ids.length} accounts, ledger has ${expected.length}")
    else m.shard.find(s => s < 0 || s >= k).map(s => s"shard $s outside [0, $k)")

  /** Recomputes mu, gamma, sigma_i, rho and Lambda (paper Eqs. 1-3) on the
    * driver for transactions [from, until) and compares them with the Spark
    * evaluator's result within 1e-9 relative.
    */
  def evaluator(ledger: Ledger, from: Int, until: Int, m: Mapping, k: Int, eta: Double,
                got: MetricsResult): Option[String] = {
    val shardOf = new java.util.HashMap[Long, Int](m.ids.length * 2)
    m.ids.indices.foreach(i => shardOf.put(m.ids(i), m.shard(i)))
    val intra = new Array[Long](k)
    val cross = new Array[Long](k)
    val lamHat = new Array[Double](k)
    val seen = new Array[Boolean](k)
    val touched = new Array[Int](k)
    var nCross = 0L
    var t = from
    while (t < until) {
      var mu = 0
      ledger.accounts(t).foreach { a =>
        val s = shardOf.get(a)
        if (!seen(s)) { seen(s) = true; touched(mu) = s; mu += 1 }
      }
      if (mu > 1) nCross += 1
      var i = 0
      while (i < mu) {
        val s = touched(i)
        if (mu == 1) intra(s) += 1 else cross(s) += 1
        lamHat(s) += 1.0 / mu
        seen(s) = false
        i += 1
      }
      t += 1
    }
    val n = until - from
    val lambda = n.toDouble / k
    val sigma = Array.tabulate(k)(s => intra(s) + eta * cross(s))
    val mean = sigma.sum / k
    val rho = math.sqrt(sigma.map(x => (x - mean) * (x - mean)).sum / k)
    val throughput = (0 until k).map { s =>
      if (sigma(s) <= lambda) lamHat(s) else lambda / sigma(s) * lamHat(s)
    }.sum
    val pairs = Seq(
      "nTx" -> (n.toDouble, got.nTx.toDouble),
      "gamma" -> (nCross.toDouble / n, got.gamma),
      "rho" -> (rho, got.rho),
      "Lambda" -> (throughput, got.throughput),
      "Lambda/lambda" -> (throughput / lambda, got.normThroughput)) ++
      (0 until k).map(s => s"sigma_$s" -> (sigma(s), got.shards(s).sigma))
    pairs.collectFirst { case (name, (want, have)) if !relClose(want, have) =>
      s"evaluator $name: reference $want, Metrics.evaluate $have"
    }
  }

  /** Incremental equals scratch: the merged graph equals a from-scratch build
    * (ids, offsets, nbr exactly; wgt and self within 1e-9 relative).
    */
  def sameGraph(merged: Graph, scratch: Graph): Option[String] = {
    def close(a: Array[Double], b: Array[Double]) =
      a.length == b.length && a.indices.forall(i => relClose(a(i), b(i)))
    if (!java.util.Arrays.equals(merged.ids, scratch.ids)) Some("merged graph ids differ from scratch")
    else if (!java.util.Arrays.equals(merged.offsets, scratch.offsets)) Some("merged graph offsets differ")
    else if (!java.util.Arrays.equals(merged.nbr, scratch.nbr)) Some("merged graph nbr differs")
    else if (!close(merged.wgt, scratch.wgt)) Some("merged graph wgt differs beyond 1e-9")
    else if (!close(merged.self, scratch.self)) Some("merged graph self differs beyond 1e-9")
    else None
  }
}
