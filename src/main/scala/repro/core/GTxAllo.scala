package repro.core

/** G-TxAllo (paper Algorithm 1): global allocation from the full transaction
  * graph.
  *
  * Louvain discovers l communities; the k with the largest workload sigma_i
  * (Eq. 5) seed the shards and the rest are dissolved. `AllocState.allocate`
  * then re-joins the dissolved nodes by best join gain (Eq. 6) and sweeps all
  * nodes by total throughput gain (Eq. 8) until the per-sweep gain < epsilon.
  *
  * Deterministic: Louvain is deterministic, community ranking breaks ties by
  * label, nodes are visited in ascending account id.
  */
object GTxAllo {

  def run(g: Graph, params: TxAlloParams): AllocResult = {
    val t0 = System.nanoTime()
    val st = new AllocState(g, params)
    if (g.n > 0) {
      val louvain = Louvain.cluster(g)
      val l = louvain.max + 1
      val sigmaL = AllocState.of(g, params.copy(k = l), louvain).sigma
      // Largest k communities w.r.t. workload; ties by smaller label.
      val shardOf = Array.fill(l)(AllocState.Unassigned)
      (0 until l).sortBy(c => (-sigmaL(c), c)).take(params.k).zipWithIndex
        .foreach { case (c, s) => shardOf(c) = s }
      var v = 0
      while (v < g.n) { st.comm(v) = shardOf(louvain(v)); v += 1 }
    }
    st.allocate(Array.tabulate(g.n)(identity), t0)
  }
}
