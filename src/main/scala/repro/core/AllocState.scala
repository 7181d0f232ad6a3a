package repro.core

/** The move engine of G- and A-TxAllo: mutable account-shard assignment state
  * with the paper's incremental throughput-gain equations (Eqs. 3, 5-8 and
  * Lemma 1), and the join phase and optimization sweeps both algorithms end
  * with (`allocate`).
  *
  * Per community i the state tracks:
  *   - sigma(i):  workload (Eq. 5) — intra weight + eta * cross weight;
  *   - lamHat(i): capacity-sufficient throughput — intra weight + cross/2;
  * and comm(v) in [0, k) or `Unassigned` (= -1, a node of a dissolved small
  * community / a brand-new account). Edges incident to an unassigned endpoint
  * are counted as cross-shard for the assigned endpoint, which is exactly how
  * the paper's join equation (sigma'_q adds eta for every non-q connection)
  * treats them, so incremental updates and `recompute()` agree at all times.
  */
final class AllocState(val g: Graph, val params: TxAlloParams) {
  import AllocState.{Unassigned, throughput}

  val k: Int = params.k
  val eta: Double = params.eta
  val lambda: Double = params.lambda

  val comm: Array[Int] = Array.fill(g.n)(Unassigned)
  val sigma: Array[Double] = new Array[Double](k)
  val lamHat: Array[Double] = new Array[Double](k)

  // Scratch for per-node neighbor-community weights (w_{v,C}): filled by
  // `gather`, zeroed by `clear` before the next node is gathered. `seen`
  // marks the communities already in `touched`, so a zero-weight arc cannot
  // list one twice.
  private val wvc = new Array[Double](k)
  private val touched = new Array[Int](k)
  private val seen = new Array[Boolean](k)

  def communityThroughput(c: Int): Double = throughput(sigma(c), lamHat(c), lambda)

  /** Overall modeled throughput Lambda (Eq. 2). */
  def totalThroughput: Double = {
    var s = 0.0; var c = 0
    while (c < k) { s += communityThroughput(c); c += 1 }
    s
  }

  /** Rebuild sigma/lamHat from scratch from `comm` (kills float drift; also
    * the brute-force reference the incremental equations are tested against).
    */
  def recompute(): Unit = {
    java.util.Arrays.fill(sigma, 0.0)
    java.util.Arrays.fill(lamHat, 0.0)
    val higher = g.firstHigher
    var v = 0
    while (v < g.n) {
      val cv = comm(v)
      if (cv != Unassigned) { sigma(cv) += g.self(v); lamHat(cv) += g.self(v) }
      var e = higher(v)
      while (e < g.offsets(v + 1)) {
        val cu = comm(g.nbr(e)); val w = g.wgt(e)
        if (cv == cu) {
          if (cv != Unassigned) { sigma(cv) += w; lamHat(cv) += w }
        } else {
          if (cv != Unassigned) { sigma(cv) += eta * w; lamHat(cv) += w / 2 }
          if (cu != Unassigned) { sigma(cu) += eta * w; lamHat(cu) += w / 2 }
        }
        e += 1
      }
      v += 1
    }
  }

  /** Throughput gain of community q when v (currently NOT in q) joins it
    * (Eq. 6), given w_vq = weight from v to members of q.
    */
  def joinGain(v: Int, q: Int, wvq: Double): Double = {
    val sigN = sigma(q) + g.self(v) + eta * (g.strength(v) - wvq) + (1 - eta) * wvq
    val lhN = lamHat(q) + g.self(v) + g.strength(v) / 2
    throughput(sigN, lhN, lambda) - throughput(sigma(q), lamHat(q), lambda)
  }

  /** Throughput gain of community p = comm(v) when v leaves it, given
    * a = w_{v, V_p / v} = weight from v to the other members of p.
    */
  def leaveGain(v: Int, a: Double): Double = {
    val p = comm(v)
    val sigN = sigma(p) - g.self(v) - eta * (g.strength(v) - a) + (eta - 1) * a
    val lhN = lamHat(p) - g.self(v) - g.strength(v) / 2
    throughput(sigN, lhN, lambda) - throughput(sigma(p), lamHat(p), lambda)
  }

  /** Apply "the unassigned node v joins q", given w_vq = weight from v to
    * members of q.
    */
  def applyJoin(v: Int, q: Int, wvq: Double): Unit = {
    sigma(q) += g.self(v) + eta * (g.strength(v) - wvq) + (1 - eta) * wvq
    lamHat(q) += g.self(v) + g.strength(v) / 2
    comm(v) = q
  }

  /** Apply "v moves from its current community p to q" (Lemma 1: only p and q
    * change): p loses v, then q takes it as in `applyJoin`.
    */
  def applyMove(v: Int, q: Int, wvp: Double, wvq: Double): Unit = {
    val p = comm(v)
    sigma(p) += -g.self(v) - eta * (g.strength(v) - wvp) + (eta - 1) * wvp
    lamHat(p) += -g.self(v) - g.strength(v) / 2
    applyJoin(v, q, wvq)
  }

  /** The shared tail of Algorithms 1 and 2, run on the seeded `comm`:
    *   1. join phase (Alg. 1 lines 2-9 / Alg. 2 lines 1-8): every Unassigned
    *      node, in ascending index, joins the community with the largest join
    *      gain (Eq. 6); a node with no assigned neighbor may join any of the k
    *      communities (the paper's forced C_v);
    *   2. optimization sweeps over `order` (Alg. 1 lines 10-19 / Alg. 2 lines
    *      9-17): a node moves to a connected community when the total gain
    *      (leave + join, Eq. 8) is strictly positive, until the per-sweep gain
    *      drops below epsilon or `params.maxSweeps` sweeps ran.
    * State is recomputed from scratch after every sweep to kill floating-point
    * drift.
    *
    * @param t0 `System.nanoTime()` at the start of the run, for `nanos`
    */
  def allocate(order: Array[Int], t0: Long): AllocResult = {
    recompute()
    var v = 0
    while (v < g.n) {
      if (comm(v) == Unassigned) {
        var nt = gather(v)
        if (nt == 0) while (nt < k) { touched(nt) = nt; nt += 1 } // forced C_v, w = 0
        val q = bestTarget(v, nt, Unassigned, 0.0, Double.NegativeInfinity)
        applyJoin(v, q, wvc(q))
        clear(nt)
      }
      v += 1
    }
    recompute()
    val initThroughput = totalThroughput

    var sweeps = 0
    var delta = Double.PositiveInfinity
    while (delta >= params.epsilon && sweeps < params.maxSweeps) {
      delta = 0.0
      var i = 0
      while (i < order.length) {
        val v = order(i)
        val p = comm(v)
        val nt = gather(v)
        val wvp = wvc(p)
        val lg = leaveGain(v, wvp)
        val q = bestTarget(v, nt, p, lg, 0.0) // only strictly positive gains move v
        if (q >= 0) {
          delta += lg + joinGain(v, q, wvc(q))
          applyMove(v, q, wvp, wvc(q))
        }
        clear(nt)
        i += 1
      }
      recompute()
      sweeps += 1
    }

    AllocResult(
      ids = g.ids,
      assign = comm.clone(),
      initThroughput = initThroughput,
      finalThroughput = totalThroughput,
      sweeps = sweeps,
      nanos = System.nanoTime() - t0)
  }

  /** The gathered community q != skip with the largest gain base + joinGain,
    * if that gain beats `floor`; -1 if none does.
    */
  private def bestTarget(v: Int, nt: Int, skip: Int, base: Double, floor: Double): Int = {
    var best = -1
    var bestGain = floor
    var t = 0
    while (t < nt) {
      val q = touched(t)
      if (q != skip) {
        val gain = base + joinGain(v, q, wvc(q))
        if (better(gain, q, bestGain, best)) { best = q; bestGain = gain }
      }
      t += 1
    }
    best
  }

  /** Candidate comparison: a gain larger by more than 1e-12 wins; ties prefer
    * the lighter (smaller sigma), then lower-indexed community — deterministic
    * and balance-friendly for isolated nodes.
    */
  @inline private def better(gain: Double, q: Int, bestGain: Double, best: Int): Boolean =
    gain > bestGain + 1e-12 ||
      (best >= 0 && math.abs(gain - bestGain) <= 1e-12 &&
        (sigma(q) < sigma(best) - 1e-12 ||
          (math.abs(sigma(q) - sigma(best)) <= 1e-12 && q < best)))

  /** Fills the scratch with w_{v,C} for assigned neighbor communities and
    * returns the number of touched communities.
    */
  private def gather(v: Int): Int = {
    var nt = 0
    g.foreachNbr(v) { (u, w) =>
      val c = comm(u)
      if (c != Unassigned) {
        if (!seen(c)) { seen(c) = true; touched(nt) = c; nt += 1 }
        wvc(c) += w
      }
    }
    nt
  }

  private def clear(nt: Int): Unit = {
    var t = 0
    while (t < nt) { wvc(touched(t)) = 0.0; seen(touched(t)) = false; t += 1 }
  }
}

object AllocState {
  /** comm value of a node not (yet) mapped to any shard. */
  final val Unassigned: Int = -1

  /** Throughput of a shard with workload sig and capacity-sufficient
    * throughput lh under capacity lambda (Eq. 3).
    */
  @inline def throughput(sig: Double, lh: Double, lambda: Double): Double =
    if (sig <= lambda) lh else lambda / sig * lh

  /** A state holding `assign` (Unassigned entries allowed), with sigma and
    * lamHat recomputed.
    */
  def of(g: Graph, params: TxAlloParams, assign: Array[Int]): AllocState = {
    val st = new AllocState(g, params)
    Array.copy(assign, 0, st.comm, 0, g.n)
    st.recompute()
    st
  }
}
