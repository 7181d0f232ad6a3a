package repro.core

/** Compact undirected weighted graph in CSR form (driver-side).
  *
  * Node ids are the original account ids; `ids` is sorted ascending and node
  * *indices* (0-based positions into `ids`) are what every algorithm loops
  * over, which makes the paper's required deterministic node order ("the hash
  * value of the accounts can determine the order") simply ascending account id.
  *
  * Each proper undirected edge is stored in both directions in (`nbr`,`wgt`);
  * self-loops live separately in `self` (the paper's w_{v,v}). `strength(v)`
  * is W_v = w_{v, V/v}, the total weight from v to *other* nodes — the exact
  * quantity used by the paper's gain equations.
  */
final class Graph private[core] (
    val n: Int,
    val ids: Array[Long],
    val offsets: Array[Int],
    val nbr: Array[Int],
    val wgt: Array[Double],
    val self: Array[Double]) {

  /** W_v: total edge weight from v to other nodes (self-loops excluded). */
  val strength: Array[Double] = {
    val s = new Array[Double](n)
    var v = 0
    while (v < n) {
      var e = offsets(v)
      while (e < offsets(v + 1)) { s(v) += wgt(e); e += 1 }
      v += 1
    }
    s
  }

  /** Total graph weight: each proper edge once + self-loops. Equals the number
    * of transactions (every transaction distributes total weight 1).
    */
  val totalWeight: Double = strength.sum / 2.0 + self.sum

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** Node index for an account id, or -1 if absent (binary search). */
  def indexOf(id: Long): Int = {
    val i = java.util.Arrays.binarySearch(ids, id)
    if (i >= 0) i else -1
  }

  /** Iterate neighbors of v: f(neighborIndex, weight). */
  @inline def foreachNbr(v: Int)(f: (Int, Double) => Unit): Unit = {
    var e = offsets(v)
    while (e < offsets(v + 1)) { f(nbr(e), wgt(e)); e += 1 }
  }
}

object Graph {

  /** The empty graph. */
  val empty: Graph =
    new Graph(0, Array.emptyLongArray, Array(0), Array.emptyIntArray, Array.emptyDoubleArray,
              Array.emptyDoubleArray)

  /** Build from an undirected weighted edge list keyed by account id.
    * `(v, v, w)` entries are self-loops. Duplicate pairs (in either direction)
    * are summed in list order. Deterministic: nodes sorted by id, adjacency
    * sorted by neighbor index.
    */
  def fromEdges(edges: Iterable[(Long, Long, Double)]): Graph = merge(empty, edges)

  /** Merge newly committed edges into an existing graph (A-TxAllo step). The
    * result equals `fromEdges` of `g`'s input edges followed by `newEdges`.
    */
  def merge(g: Graph, newEdges: Iterable[(Long, Long, Double)]): Graph = {
    val k = newEdges.size
    val ends = new Array[Long](2 * k)
    val weight = new Array[Double](k)
    var i = 0
    newEdges.foreach { case (a, b, x) => ends(2 * i) = a; ends(2 * i + 1) = b; weight(i) = x; i += 1 }
    // The node index of g's node v at v, then of each new edge's two ends.
    val (ids, index) = rank(Array.concat(g.ids, ends), 0, g.n + 2 * k)

    // g's own edges first, then the new ones: the list `fromEdges` would see
    // for the whole input.
    val (src, dst, w) = edgeList(g, index, k)
    val m = src.length - k
    for (e <- 0 until k) { src(m + e) = index(g.n + 2 * e); dst(m + e) = index(g.n + 2 * e + 1); w(m + e) = weight(e) }
    build(ids, src, dst, w)
  }

  /** Quotient graph: node v of `g` becomes node `label(v)` of `nc` nodes.
    * Weight between two groups is summed into one edge; weight inside a group
    * (member self-loops included) becomes the group's self-loop.
    */
  private[repro] def quotient(g: Graph, label: Array[Int], nc: Int): Graph = {
    val (src, dst, w) = edgeList(g, label, 0)
    build(Array.tabulate(nc)(_.toLong), src, dst, w)
  }

  /** `g`'s edges as an index list with node v renamed `label(v)`, plus
    * `extra` unfilled entries at the end. Per node in ascending order: its
    * self-loop, then its arcs to higher indices.
    */
  private def edgeList(g: Graph, label: Array[Int],
                       extra: Int): (Array[Int], Array[Int], Array[Double]) = {
    val m = g.n + g.nbr.length / 2 + extra
    val src = new Array[Int](m)
    val dst = new Array[Int](m)
    val w = new Array[Double](m)
    var i = 0
    var v = 0
    while (v < g.n) {
      val lv = label(v)
      src(i) = lv; dst(i) = lv; w(i) = g.self(v); i += 1
      g.foreachNbr(v) { (u, wu) =>
        if (v < u) { src(i) = lv; dst(i) = label(u); w(i) = wu; i += 1 }
      }
      v += 1
    }
    (src, dst, w)
  }

  /** The one edge-aggregation primitive: the CSR graph over `ids` of the
    * index list (`src`, `dst`, `w`).
    *
    * Entries with `src == dst` are self-loops and go to `self`; every other
    * entry is an undirected edge stored in both adjacency rows. Duplicates are
    * summed in the order they arrive (from 0.0, in list order), so a caller
    * that emits the same list gets bit-identical weights — which is what
    * makes mappings reproducible and a merged graph equal a scratch build.
    * Each row is sorted by neighbor index.
    */
  private[repro] def build(ids: Array[Long], src: Array[Int], dst: Array[Int],
                           w: Array[Double]): Graph = {
    val n = ids.length
    val m = src.length
    val self = new Array[Double](n)
    val rowStart = new Array[Int](n + 1)
    var i = 0
    while (i < m) {
      if (src(i) == dst(i)) self(src(i)) += w(i)
      else { rowStart(src(i) + 1) += 1; rowStart(dst(i) + 1) += 1 }
      i += 1
    }
    var v = 0
    while (v < n) { rowStart(v + 1) += rowStart(v); v += 1 }

    // Scatter (neighbor, list position) keys into rows; sorting a row then
    // puts duplicates next to each other in list order.
    val cursor = java.util.Arrays.copyOf(rowStart, n)
    val keys = new Array[Long](rowStart(n))
    i = 0
    while (i < m) {
      val s = src(i); val d = dst(i)
      if (s != d) {
        keys(cursor(s)) = (d.toLong << 32) | i; cursor(s) += 1
        keys(cursor(d)) = (s.toLong << 32) | i; cursor(d) += 1
      }
      i += 1
    }

    val offsets = new Array[Int](n + 1)
    val nbr = new Array[Int](keys.length)
    val wgt = new Array[Double](keys.length)
    var e = 0
    v = 0
    while (v < n) {
      java.util.Arrays.sort(keys, rowStart(v), rowStart(v + 1))
      var t = rowStart(v)
      while (t < rowStart(v + 1)) {
        val u = (keys(t) >>> 32).toInt
        if (e == offsets(v) || nbr(e - 1) != u) { nbr(e) = u; e += 1 }
        wgt(e - 1) += w(keys(t).toInt)
        t += 1
      }
      offsets(v + 1) = e
      v += 1
    }
    new Graph(n, ids, offsets, java.util.Arrays.copyOf(nbr, e), java.util.Arrays.copyOf(wgt, e), self)
  }

  /** The ascending distinct values of `xs(lo until hi)`, and for each entry
    * the position of `xs(lo + j)` among them, at j. An open-addressing table
    * numbers the distinct values in first-seen order, then only those are
    * sorted and one pass renames each entry to its rank; the ranks come from
    * the sort, so the result does not depend on the hash.
    */
  private[repro] def rank(xs: Array[Long], lo: Int, hi: Int): (Array[Long], Array[Int]) = {
    // Slot h holds a key at 2h and 1 + its first-seen number at 2h + 1 (0:
    // empty), so that a probe reads one cache line.
    var table = new Array[Long](32)
    val idx = new Array[Int](hi - lo)
    var d = 0
    var j = lo
    while (j < hi) {
      if (4 * d >= table.length) table = grow(table) // keep the table at most half full
      val h = slot(table, xs(j))
      if (table(h + 1) == 0) { d += 1; table(h) = xs(j); table(h + 1) = d }
      idx(j - lo) = table(h + 1).toInt - 1
      j += 1
    }
    val t = table // the closures below capture this val, not the var the loop above updates
    val ids = new Array[Long](d)
    var s = 0
    while (s < t.length) { if (t(s + 1) != 0) ids(t(s + 1).toInt - 1) = t(s); s += 2 }
    java.util.Arrays.sort(ids)
    val rankOf = new Array[Int](d)
    for (r <- 0 until d) rankOf(t(slot(t, ids(r)) + 1).toInt - 1) = r
    for (i <- idx.indices) idx(i) = rankOf(idx(i))
    (ids, idx)
  }

  /** Where `x`'s slot starts in a table of `rank`, or where the empty slot
    * it would take starts: Fibonacci hashing, then linear probing.
    */
  private def slot(table: Array[Long], x: Long): Int = {
    val slots = table.length / 2
    var h = ((x * 0x9E3779B97F4A7C15L) >>> (64 - Integer.numberOfTrailingZeros(slots))).toInt
    while (table(2 * h + 1) != 0 && table(2 * h) != x) h = (h + 1) & (slots - 1)
    2 * h
  }

  /** A `rank` table re-inserted into one of twice the size. */
  private def grow(table: Array[Long]): Array[Long] = {
    val grown = new Array[Long](2 * table.length)
    var s = 0
    while (s < table.length) {
      if (table(s + 1) != 0) { val h = slot(grown, table(s)); grown(h) = table(s); grown(h + 1) = table(s + 1) }
      s += 2
    }
    grown
  }
}
