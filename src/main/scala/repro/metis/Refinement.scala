package repro.metis

import repro.core.Graph

/** Uncoarsening refinement: FM-style greedy boundary moves.
  *
  * Sweeps nodes in ascending index; a node moves to the neighboring part with
  * the largest positive cut-gain (w_to_target - w_to_own) provided the target
  * stays under the balance cap. Sweeps repeat until no node moves (bounded by
  * `MaxSweeps`). Deterministic and, like METIS, only aware of *vertex weight*
  * balance — never of the blockchain workload.
  */
object Refinement {

  private val MaxSweeps = 5

  def refine(g: Graph, nodeW: Array[Double], part: Array[Int], k: Int, imbalance: Double): Array[Int] = {
    val cap = nodeW.sum / k * (1.0 + imbalance)
    val load = new Array[Double](k)
    var v = 0
    while (v < g.n) { load(part(v)) += nodeW(v); v += 1 }

    val conn = new Array[Double](k)
    var sweep = 0
    var moved = true
    while (moved && sweep < MaxSweeps) {
      moved = false
      v = 0
      while (v < g.n) {
        val p = part(v)
        g.foreachNbr(v)((u, w) => conn(part(u)) += w)
        // Balance mode: when v's part is over the cap, METIS-style refinement
        // evacuates boundary nodes even at a cut loss (least-bad move wins,
        // ties prefer the lighter part; any part is a target, so fully
        // interior nodes of an oversized part can still leave).
        val overloaded = load(p) > cap
        var best = -1
        var bestGain = if (overloaded) Double.NegativeInfinity else 0.0
        var q = 0
        while (q < k) {
          if (q != p && load(q) + nodeW(v) <= cap && (overloaded || conn(q) > 0)) {
            val gain = conn(q) - conn(p)
            if (gain > bestGain + 1e-12 ||
                (best >= 0 && math.abs(gain - bestGain) <= 1e-12 && load(q) < load(best) - 1e-12))
              { best = q; bestGain = gain }
          }
          q += 1
        }
        java.util.Arrays.fill(conn, 0.0) // the scan above is O(k) already
        if (best >= 0 && (bestGain > 0 || (overloaded && load(p) - nodeW(v) >= load(best)))) {
          load(p) -= nodeW(v)
          load(best) += nodeW(v)
          part(v) = best
          moved = true
        }
        v += 1
      }
      sweep += 1
    }
    part
  }
}
