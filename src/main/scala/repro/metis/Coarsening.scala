package repro.metis

import repro.core.Graph

/** Coarsening phase: deterministic heavy-edge matching (METIS HEM).
  *
  * Nodes are visited in ascending index; an unmatched node is matched with
  * its unmatched neighbor of maximal edge weight (ties: lowest index). The
  * matched pair becomes one coarse node whose vertex weight is the sum and
  * whose adjacency is the aggregated union (`Graph.quotient`). Intra-pair
  * edges leave the adjacency for the coarse node's self-loop, which the
  * partitioner never reads — edge cut only ever shrinks under coarsening.
  */
object Coarsening {

  /** One matching pass over `g` with vertex weights `nodeW`. Returns the
    * coarse graph, its vertex weights and the fine->coarse map. `maxNodeW`
    * caps the merged vertex weight (METIS's maxvwgt), preventing heavy hubs
    * from snowballing into un-balanceable coarse nodes.
    */
  def coarsenOnce(g: Graph, nodeW: Array[Double],
                  maxNodeW: Double = Double.PositiveInfinity): (Graph, Array[Double], Array[Int]) = {
    val map = Array.fill(g.n)(-1)
    var nc = 0
    var v = 0
    while (v < g.n) {
      if (map(v) < 0) {
        var best = -1
        var bestW = 0.0
        g.foreachNbr(v) { (u, w) =>
          if (u != v && map(u) < 0 && nodeW(v) + nodeW(u) <= maxNodeW &&
              (w > bestW + 1e-15 || (math.abs(w - bestW) <= 1e-15 && best >= 0 && u < best)))
            { best = u; bestW = w }
        }
        map(v) = nc
        if (best >= 0) map(best) = nc
        nc += 1
      }
      v += 1
    }

    val coarseW = new Array[Double](nc)
    v = 0
    while (v < g.n) { coarseW(map(v)) += nodeW(v); v += 1 }

    (Graph.quotient(g, map, nc), coarseW, map)
  }

  /** Coarsen until `targetN` nodes or the matching stalls (< 5% shrink).
    * Returns the level stack: ((graph, vertex weights) per level, fine->coarse
    * maps), finest first.
    */
  def coarsen(g: Graph, nodeW: Array[Double], targetN: Int,
              maxNodeW: Double = Double.PositiveInfinity): (List[(Graph, Array[Double])], List[Array[Int]]) = {
    var levels = List((g, nodeW))
    var maps = List.empty[Array[Int]]
    var stalled = false
    while (levels.head._1.n > targetN && !stalled) {
      val (cur, curW) = levels.head
      val (coarse, coarseW, map) = coarsenOnce(cur, curW, maxNodeW)
      if (coarse.n >= cur.n * 0.95) stalled = true
      else {
        levels = (coarse, coarseW) :: levels
        maps = map :: maps
      }
    }
    (levels.reverse, maps.reverse) // finest first; maps(i): levels(i) -> levels(i+1)
  }
}
