package repro.core

import org.apache.spark.sql.DataFrame
import repro.chain.{Incidence, LocalFrame}
import scala.collection.mutable

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

  /** The driver-side CSR graph of a `(txId, block, accounts)` ledger: one
    * packed read ([[Incidence.collect]]), each account set sorted (unless it
    * ascends strictly already, as TxGen's do) and deduplicated on the driver,
    * then [[fromIncidence]]. The read also takes the `txId` and `block`
    * columns, which the graph does not use, so `txs` must have both.
    *
    * @throws IllegalArgumentException if a transaction's txId, block, account
    *   set or an account is null, or the set is empty (it would carry no
    *   weight), or if L·|T| exceeds 2^53
    */
  def fromTxs(txs: DataFrame): Graph = {
    val Incidence(_, _, offsets, accounts) = Incidence.collect(txs)
    var (a, j) = (0, 0) // row t - 1 moves down in place, from [a, offsets(t)) to start at j <= a
    for (t <- 1 until offsets.length) {
      val b = offsets(t)
      if ((a + 1 until b).exists(i => accounts(i - 1) >= accounts(i))) java.util.Arrays.sort(accounts, a, b)
      for (i <- a until b) if (i == a || accounts(i) != accounts(j - 1)) { accounts(j) = accounts(i); j += 1 }
      offsets(t) = j; a = b
    }
    fromIncidence(offsets, accounts)
  }

  /** The graph of transactions t in [0, offsets.length - 1), where
    * transaction t has the strictly ascending accounts
    * `accounts(offsets(t) until offsets(t + 1))`. `offsets` need not start
    * at 0, so a slice of a ledger's offsets builds the graph of those
    * transactions.
    *
    * @throws IllegalArgumentException if a transaction has no account or its
    *   accounts are not strictly ascending, or if L·|T| exceeds 2^53
    */
  def fromIncidence(offsets: Array[Int], accounts: Array[Long]): Graph = {
    val nTx = math.max(offsets.length - 1, 0)
    val sizes = mutable.BitSet.empty
    var nEntries = 0L
    for (t <- 0 until nTx) {
      val m = offsets(t + 1) - offsets(t)
      require(m > 0, "transaction with a null or empty account set")
      for (j <- offsets(t) + 1 until offsets(t + 1))
        require(accounts(j - 1) < accounts(j), s"transaction row $t: accounts not strictly ascending")
      sizes += m
      nEntries += pairs(m)
    }
    val l = unitsPerTx(sizes.toArray, nTx)
    require(nEntries <= Int.MaxValue, s"$nEntries pair entries; Graph.build takes at most ${Int.MaxValue}")

    val (lo, hi) = if (nTx == 0) (0, 0) else (offsets(0), offsets(nTx))
    // Node index of every account entry, at entry j - lo.
    val (ids, node) = Graph.rank(accounts, lo, hi)
    val src = new Array[Int](nEntries.toInt)
    val dst = new Array[Int](nEntries.toInt)
    val w = new Array[Double](nEntries.toInt)
    var i = 0
    for (t <- 0 until nTx) {
      val a = offsets(t) - lo
      val b = offsets(t + 1) - lo
      val units = (l / pairs(b - a)).toDouble
      if (b - a == 1) { src(i) = node(a); dst(i) = node(a); w(i) = units; i += 1 }
      var x = a
      while (x < b) {
        var y = x + 1
        while (y < b) { src(i) = node(x); dst(i) = node(y); w(i) = units; i += 1; y += 1 }
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
    * weight: Double)` of [[edgeRows]], in their order. A local DataFrame
    * ([[LocalFrame]]); `Graph.fromEdges` of its rows rebuilds the same graph.
    */
  def edges(txs: DataFrame): DataFrame =
    edgeRows(fromTxs(txs)).unzip3 match { case (s, d, w) => LocalFrame(txs.sparkSession, "src" -> s, "dst" -> d, "weight" -> w) }

  /** `g`'s undirected edges in node order: per node, its self-loop (a, a)
    * if its weight is non-zero, then each arc to a higher index once, with
    * src < dst.
    */
  def edgeRows(g: Graph): Array[(Long, Long, Double)] = {
    val rows = Array.newBuilder[(Long, Long, Double)]
    var v = 0
    while (v < g.n) {
      val a = g.ids(v)
      if (g.self(v) != 0.0) rows += ((a, a, g.self(v)))
      for (e <- g.firstHigher(v) until g.offsets(v + 1)) rows += ((a, g.ids(g.nbr(e)), g.wgt(e)))
      v += 1
    }
    rows.result()
  }
}
