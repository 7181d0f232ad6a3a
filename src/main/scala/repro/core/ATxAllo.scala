package repro.core

/** A-TxAllo (paper Algorithm 2): adaptive allocation update.
  *
  * Inputs: the *current* full transaction graph (previous history merged with
  * the newly committed blocks), the previous account-shard mapping, and the
  * set V-hat of accounts appearing in the new blocks. Only new accounts are
  * join-allocated (Eq. 6) and only new and V-hat nodes are re-optimized
  * (Eq. 8). The paper's step costs O(|V-hat| * k); this one does not yet: it
  * seeds by scanning all n nodes through the `Map`, and every sweep ends with
  * an O(|E|) `recompute()`, so a step grows with the history (ROADMAP item 7).
  */
object ATxAllo {

  /** @param g          merged transaction graph over the full history
    * @param prevAssign previous mapping, account id -> shard in [0, k)
    * @param active     V-hat: account ids appearing in newly committed blocks
    */
  def run(g: Graph, prevAssign: Map[Long, Int], active: Set[Long],
          params: TxAlloParams): AllocResult = {
    val t0 = System.nanoTime()
    val st = new AllocState(g, params)

    // Previous allocations carry over; anything else (new accounts, or
    // stragglers never allocated) starts Unassigned.
    var v = 0
    while (v < g.n) {
      prevAssign.get(g.ids(v)).foreach { s =>
        require(s >= 0 && s < params.k, s"previous shard $s out of range for k=${params.k}")
        st.comm(v) = s
      }
      v += 1
    }

    val newNodes = (0 until g.n).iterator.filter(st.comm(_) == AllocState.Unassigned)
    val order = (newNodes ++ active.iterator.map(g.indexOf).filter(_ >= 0)).toArray.distinct.sorted
    st.allocate(order, t0)
  }
}
