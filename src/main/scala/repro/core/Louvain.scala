package repro.core

/** Deterministic multilevel Louvain community detection (paper Section V-B
  * initialization; Blondel et al. 2008).
  *
  * Determinism (paper Section IV-A) comes from: nodes visited in ascending
  * account-id order, candidate communities visited in adjacency order, moves
  * taken only on strictly positive modularity gain with smaller-label
  * tie-breaking, and a deterministic coarse-graph construction. Two runs on
  * the same graph produce identical labelings.
  */
object Louvain {

  /** Caps on coarsening levels and on local-move sweeps per level. */
  private val MaxLevels = 20
  private val MaxSweeps = 20

  /** Community label per node index, compacted to 0..l-1 in order of first
    * occurrence by node index. The number of communities l is discovered by
    * the algorithm (typically l >> k on long-tailed transaction graphs).
    */
  def cluster(g: Graph): Array[Int] = {
    var cur = g
    // mapping(v) = community of original node v in the current level's graph
    var mapping = Array.tabulate(g.n)(identity)
    var level = 0
    var done = false
    while (!done && level < MaxLevels) {
      val comm = localMoves(cur)
      val labels = compact(comm)
      val nc = if (labels.isEmpty) 0 else labels.max + 1
      if (nc == cur.n) done = true
      else {
        mapping = mapping.map(labels)
        cur = Graph.quotient(cur, labels, nc)
        level += 1
      }
    }
    compact(mapping)
  }

  /** Newman-Girvan modularity of an assignment (used by tests; any consistent
    * convention works — here k_v = W_v + 2 w_vv, 2m = sum k_v).
    */
  def modularity(g: Graph, comm: Array[Int]): Double = {
    val m2 = (0 until g.n).map(v => g.strength(v) + 2 * g.self(v)).sum
    if (m2 == 0) return 0.0
    val nc = if (g.n == 0) 0 else comm.max + 1
    val win = new Array[Double](nc)
    val tot = new Array[Double](nc)
    var v = 0
    while (v < g.n) {
      val c = comm(v)
      tot(c) += g.strength(v) + 2 * g.self(v)
      win(c) += g.self(v)
      g.foreachNbr(v)((u, w) => if (u > v && comm(u) == c) win(c) += w)
      v += 1
    }
    (0 until nc).map(c => 2 * win(c) / m2 - math.pow(tot(c) / m2, 2)).sum
  }

  /** One level of sequential local moves; returns raw community labels. */
  private def localMoves(g: Graph): Array[Int] = {
    val n = g.n
    val comm = Array.tabulate(n)(identity)
    val k = Array.tabulate(n)(v => g.strength(v) + 2 * g.self(v))
    val m2 = k.sum
    if (m2 == 0) return comm
    val sigmaTot = k.clone()

    val wvc = new Array[Double](n)       // scratch: weight from v to community c
    val touched = new Array[Int](n)
    var sweep = 0
    var moved = true
    while (moved && sweep < MaxSweeps) {
      moved = false
      var v = 0
      while (v < n) {
        val p = comm(v)
        var nt = 0
        g.foreachNbr(v) { (u, w) =>
          val c = comm(u)
          if (wvc(c) == 0.0 && w > 0) { touched(nt) = c; nt += 1 }
          wvc(c) += w
        }
        sigmaTot(p) -= k(v)
        var best = p
        var bestGain = wvc(p) - k(v) * sigmaTot(p) / m2
        var t = 0
        while (t < nt) {
          val c = touched(t)
          if (c != p) {
            val gain = wvc(c) - k(v) * sigmaTot(c) / m2
            if (gain > bestGain + 1e-12 || (math.abs(gain - bestGain) <= 1e-12 && c < best)) {
              best = c; bestGain = gain
            }
          }
          t += 1
        }
        sigmaTot(best) += k(v)
        if (best != p) { comm(v) = best; moved = true }
        // reset scratch
        t = 0
        while (t < nt) { wvc(touched(t)) = 0.0; t += 1 }
        wvc(p) = 0.0 // p may not be in touched if v has no intra-community nbrs
        v += 1
      }
      sweep += 1
    }
    comm
  }

  /** Relabel to 0..l-1 in order of first occurrence (ascending node index). */
  private[core] def compact(comm: Array[Int]): Array[Int] = {
    val label = Array.fill(if (comm.isEmpty) 0 else comm.max + 1)(-1)
    var next = 0
    comm.map { c =>
      if (label(c) < 0) { label(c) = next; next += 1 }
      label(c)
    }
  }
}
