package repro.metis

import repro.core.Graph

/** METIS-like multilevel k-way partitioner (baseline of Fynn et al. /
  * BrokerChain; see DESIGN.md substitution #2), one recursion per level:
  * heavy-edge matching coarsens the graph, the coarse graph is partitioned
  * recursively, and its partition is projected back and refined with
  * FM-style boundary moves; the coarsest level is seeded greedily instead.
  * The objective is minimal edge cut under *vertex-weight* balance; the
  * paper's point is precisely that this objective ignores the cross-shard
  * workload factor eta, so METIS allocations overload the hub account's shard.
  */
object Metis {

  /** Allowed vertex-weight excess of a part over the mean. */
  private val Imbalance = 0.05
  private val MaxSweeps = 5 // refinement sweeps per level

  /** @return shard per node index, values in [0, k), deterministic. */
  def partition(g: Graph, k: Int): Array[Int] = {
    require(k >= 1, "k must be >= 1")
    if (g.n == 0) return Array.emptyIntArray
    if (k == 1) return new Array[Int](g.n)

    // Vertex weight is *activity* (W_v + 2 w_vv, the account's total
    // transaction involvement): METIS balances it, NOT the blockchain
    // workload, which is the mismatch the paper criticizes (Section II-C).
    val nodeW = Array.tabulate(g.n)(v => g.strength(v) + 2 * g.self(v))
    val targetN = math.max(4 * k, 128)
    // METIS maxvwgt: coarse nodes stay individually balanceable.
    val maxNodeW = nodeW.sum / (3.0 * k)

    // Coarsen while the level is above targetN and a matching pass shrinks it
    // by 5% or more; otherwise seed it.
    def level(g: Graph, w: Array[Double]): Array[Int] = {
      lazy val (coarse, coarseW, map) = coarsen(g, w, maxNodeW)
      val start =
        if (g.n > targetN && coarse.n < g.n * 0.95) {
          val part = level(coarse, coarseW)
          Array.tabulate(g.n)(v => part(map(v)))
        } else seed(g, w, k)
      refine(g, w, start, k)
    }
    level(g, nodeW)
  }

  /** One heavy-edge matching pass (METIS HEM): in ascending index, an
    * unmatched node is matched with its unmatched neighbor of maximal edge
    * weight (ties: lowest index) if their summed vertex weight stays within
    * `maxNodeW`. A pair becomes one coarse node (summed weight, aggregated
    * adjacency via `Graph.quotient`; intra-pair edges become a self-loop the
    * partitioner never reads, so edge cut only shrinks under coarsening).
    * @return the coarse graph, its vertex weights and the fine->coarse map
    */
  private[metis] def coarsen(g: Graph, nodeW: Array[Double], maxNodeW: Double): (Graph, Array[Double], Array[Int]) = {
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

  /** Greedy seeding of the coarsest level, in descending vertex weight (ties:
    * lower index): a node goes to the *feasible* part (load + w <= cap) it is
    * most connected to (ties: the lighter part), or to the lightest part if
    * none is feasible. Like METIS's recursive-bisection seeding, it balances
    * vertex weight and gives refinement a locality-aware start.
    */
  private[metis] def seed(g: Graph, nodeW: Array[Double], k: Int): Array[Int] = {
    val part = Array.fill(g.n)(-1)
    val load = new Array[Double](k)
    val cap = nodeW.sum / k * (1.0 + Imbalance)
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

  /** FM-style boundary refinement of `part`, in place: sweeping in ascending
    * index, a node moves to the neighboring part with the largest positive
    * cut-gain (w_to_target - w_to_own) that stays under the balance cap, until
    * no node moves. Like METIS, aware of *vertex weight* balance only.
    */
  private[metis] def refine(g: Graph, nodeW: Array[Double], part: Array[Int], k: Int): Array[Int] = {
    val cap = nodeW.sum / k * (1.0 + Imbalance)
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
