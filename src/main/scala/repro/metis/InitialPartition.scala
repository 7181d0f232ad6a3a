package repro.metis

import repro.core.Graph

/** Initial partitioning of the coarsest graph: greedy weighted seeding.
  *
  * Coarse nodes are placed in descending vertex-weight order (ties: lower
  * index). Each node goes to the *feasible* part (load + w <= cap) with the
  * strongest connection to the node; connection ties prefer the lighter part.
  * If no part is feasible the lightest part takes it. This mimics METIS's
  * recursive-bisection seeding closely enough: it balances vertex weight and
  * seeds the refinement phase with a locality-aware start.
  */
object InitialPartition {

  def seed(g: Graph, nodeW: Array[Double], k: Int, imbalance: Double): Array[Int] = {
    val part = Array.fill(g.n)(-1)
    val load = new Array[Double](k)
    val cap = nodeW.sum / k * (1.0 + imbalance)
    val order = (0 until g.n).sortBy(v => (-nodeW(v), v))
    val conn = new Array[Double](k)

    order.foreach { v =>
      java.util.Arrays.fill(conn, 0.0)
      g.foreachNbr(v)((u, w) => if (part(u) >= 0) conn(part(u)) += w)
      var best = -1
      var p = 0
      while (p < k) {
        if (load(p) + nodeW(v) <= cap) {
          if (best < 0 || conn(p) > conn(best) + 1e-12 ||
              (math.abs(conn(p) - conn(best)) <= 1e-12 && load(p) < load(best) - 1e-12))
            best = p
        }
        p += 1
      }
      if (best < 0) { // nothing feasible (oversized node): lightest part
        best = 0
        p = 1
        while (p < k) { if (load(p) < load(best)) best = p; p += 1 }
      }
      part(v) = best
      load(best) += nodeW(v)
    }
    part
  }
}
