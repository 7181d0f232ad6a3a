package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Transaction-graph construction (paper Definition 2).
  *
  * A transaction with account set A (|A| = m) becomes:
  *   - m == 1: a self-loop edge (a, a) with weight 1;
  *   - m >= 2: all C(m,2) unordered pairs, each with weight 1 / C(m,2),
  * and the final edge weight is the sum over all transactions touching the
  * pair, so every transaction distributes exactly total weight 1 and the
  * graph's total weight equals |T|.
  *
  * Weights are summed in integer units of 1/L, where L is the lcm of C(m,2)
  * over the transaction sizes m present (L = 6 when every m <= 4): a
  * transaction adds L / C(m,2) units to each of its pairs, or L to its
  * self-loop. With L·|T| <= 2^53 every partial sum is an exactly represented
  * integer, so the sums do not depend on the order the ledger's rows arrive
  * in — the graph, and every mapping computed from it, is the same under any
  * Spark partitioning. Weights are divided by L once, at the end.
  */
object TxGraph {

  /** Every integer up to 2^53 is an exact Double, so integer sums up to it are exact. */
  private val MaxExactUnits = 1L << 53

  /** The driver-side CSR graph of a `(txId, block, accounts)` ledger. One
    * Spark action collects each transaction's sorted distinct account set;
    * `Graph.build` sums the pairs.
    *
    * @throws IllegalArgumentException if a transaction's account set is null
    *   or empty (it would carry no weight), or if L·|T| exceeds 2^53
    */
  def fromTxs(txs: DataFrame): Graph = {
    import txs.sparkSession.implicits._
    val accounts = txs.select(array_sort(array_distinct(col("accounts")))).as[Array[Long]].collect()
    require(accounts.forall(a => a != null && a.nonEmpty), "transaction with a null or empty account set")

    val l = unitsPerTx(accounts.map(_.length).distinct.sorted, accounts.length.toLong)
    val nEntries = accounts.foldLeft(0L)((s, a) => s + pairs(a.length))
    require(nEntries <= Int.MaxValue, s"$nEntries pair entries; Graph.build takes at most ${Int.MaxValue}")

    val ids = Graph.sortedDistinct(accounts.flatten)
    val src = new Array[Int](nEntries.toInt)
    val dst = new Array[Int](nEntries.toInt)
    val w = new Array[Double](nEntries.toInt)
    var i = 0
    accounts.foreach { a =>
      val v = a.map(java.util.Arrays.binarySearch(ids, _))
      val units = (l / pairs(a.length)).toDouble
      if (v.length == 1) { src(i) = v(0); dst(i) = v(0); w(i) = units; i += 1 }
      var x = 0
      while (x < v.length) {
        var y = x + 1
        while (y < v.length) { src(i) = v(x); dst(i) = v(y); w(i) = units; i += 1; y += 1 }
        x += 1
      }
    }
    val g = Graph.build(ids, src, dst, w)
    new Graph(g.n, g.ids, g.offsets, g.nbr, g.wgt.map(_ / l), g.self.map(_ / l))
  }

  /** Entries a transaction of m accounts adds: C(m,2) pairs, or one self-loop. */
  private def pairs(m: Int): Long = if (m == 1) 1L else m.toLong * (m - 1) / 2

  /** L, the lcm of `pairs(m)` over the ascending transaction `sizes`
    * present, checked so that L·|T| units stay in the exact range of a
    * Double.
    */
  private[core] def unitsPerTx(sizes: Array[Int], nTx: Long): Long = {
    def fail(l: String) = throw new IllegalArgumentException(
      s"edge weight unit 1/L: L = $l, |T| = $nTx, largest transaction ${sizes.lastOption.getOrElse(0)} " +
        "accounts; L·|T| must not exceed 2^53")
    def gcd(a: Long, b: Long): Long = if (b == 0) a else gcd(b, a % b)
    val l =
      try sizes.foldLeft(1L)((l, m) => Math.multiplyExact(l / gcd(l, pairs(m)), pairs(m)))
      catch { case _: ArithmeticException => fail("more than 2^63") }
    if (nTx > 0 && l > MaxExactUnits / nTx) fail(l.toString)
    l
  }

  /** `fromTxs(txs)` as an undirected edge list `(src: Long, dst: Long,
    * weight: Double)`: each self-loop as (a, a), each proper edge once with
    * src < dst. A local DataFrame; `Graph.fromEdges` of its rows rebuilds the
    * same graph.
    */
  def edges(txs: DataFrame): DataFrame = {
    val g = fromTxs(txs)
    val rows = Array.newBuilder[(Long, Long, Double)]
    var v = 0
    while (v < g.n) {
      val a = g.ids(v)
      if (g.self(v) != 0.0) rows += ((a, a, g.self(v)))
      g.foreachNbr(v)((u, w) => if (v < u) rows += ((a, g.ids(u), w)))
      v += 1
    }
    txs.sparkSession.createDataFrame(rows.result().toSeq).toDF("src", "dst", "weight")
  }
}
