package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** Verifies the paper's incremental gain equations (Eqs. 3, 5-8, Lemma 1)
  * against brute-force recomputation of the modeled throughput.
  */
class AllocStateSpec extends AnyFunSuite {

  /** w_{v,c}: brute-force sum of v's arc weights to the members of c. */
  private def weightTo(st: AllocState, v: Int, c: Int): Double = {
    var w = 0.0
    st.g.foreachNbr(v)((u, x) => if (st.comm(u) == c) w += x)
    w
  }

  // Hand-computed 4-node example: edges 1-2 (w=1), 3-4 (w=2), 2-3 (w=0.5),
  // self-loop at 1 (w=0.3); communities {1,2} -> 0, {3,4} -> 1; eta = 3.
  private val gHand = Graph.fromEdges(
    Seq((1L, 2L, 1.0), (3L, 4L, 2.0), (2L, 3L, 0.5), (1L, 1L, 0.3)))
  private val handComm = Array(0, 0, 1, 1) // ids sorted: 1,2,3,4

  test("recompute: hand-computed sigma (Eq. 5)") {
    val st = AllocState.of(gHand, TxAlloParams(2, 3.0, 10.0, 1e-9), handComm)
    assert(math.abs(st.sigma(0) - (1.0 + 0.3 + 3 * 0.5)) < 1e-12)
    assert(math.abs(st.sigma(1) - (2.0 + 3 * 0.5)) < 1e-12)
  }

  test("recompute: hand-computed capacity-sufficient throughput") {
    val st = AllocState.of(gHand, TxAlloParams(2, 3.0, 10.0, 1e-9), handComm)
    assert(math.abs(st.lamHat(0) - (1.0 + 0.3 + 0.25)) < 1e-12)
    assert(math.abs(st.lamHat(1) - (2.0 + 0.25)) < 1e-12)
  }

  test("throughput uses Eq. 3 in both capacity regimes") {
    val sufficient = AllocState.of(gHand, TxAlloParams(2, 3.0, 10.0, 1e-9), handComm)
    assert(math.abs(sufficient.totalThroughput - (1.55 + 2.25)) < 1e-12)
    val starved = AllocState.of(gHand, TxAlloParams(2, 3.0, 3.0, 1e-9), handComm)
    val expected = 1.55 + 3.0 / 3.5 * 2.25
    assert(math.abs(starved.totalThroughput - expected) < 1e-12)
  }

  test("total throughput is capped by total weight (no redundant counting)") {
    val st = AllocState.of(gHand, TxAlloParams(2, 3.0, 1000.0, 1e-9), handComm)
    assert(st.totalThroughput <= gHand.totalWeight + 1e-12)
  }

  test("fully intra-shard allocation reaches throughput == total weight") {
    val g = TestUtil.cliques(2, 4)
    val comm = Array.tabulate(g.n)(v => if (v < 4) 0 else 1)
    val st = AllocState.of(g, TxAlloParams(2, 2.0, 1000.0, 1e-9), comm)
    assert(math.abs(st.totalThroughput - g.totalWeight) < 1e-12)
  }

  test("unassigned endpoints count as cross-shard for the assigned side") {
    val g = Graph.fromEdges(Seq((1L, 2L, 1.0)))
    val st = new AllocState(g, TxAlloParams(2, 4.0, 10.0, 1e-9))
    st.comm(0) = 0 // node 1 assigned, node 2 unassigned
    st.recompute()
    assert(math.abs(st.sigma(0) - 4.0) < 1e-12)
    assert(math.abs(st.lamHat(0) - 0.5) < 1e-12)
    assert(st.sigma(1) == 0.0)
  }

  // ---- randomized brute-force verification --------------------------------

  private def randomSetup(seed: Int): (Graph, TxAlloParams, Array[Int]) = {
    val rnd = new scala.util.Random(seed)
    val g = TestUtil.randomGraph(25 + rnd.nextInt(15), 80, 6, seed)
    val k = 2 + rnd.nextInt(4)
    val eta = 1.0 + rnd.nextDouble() * 6
    // Mix both capacity regimes across communities.
    val lambda = g.totalWeight / k * (0.5 + rnd.nextDouble())
    val p = TxAlloParams(k, eta, lambda, 1e-9)
    val comm = Array.tabulate(g.n)(_ => rnd.nextInt(k))
    (g, p, comm)
  }

  for (seed <- 1 to 15) {
    test(s"Eq. 8: leave+join gain equals brute-force throughput delta (seed=$seed)") {
      val (g, p, comm) = randomSetup(seed)
      val rnd = new scala.util.Random(seed * 31)
      val st = AllocState.of(g, p, comm)
      val before = st.totalThroughput
      for (_ <- 0 until 20) {
        val v = rnd.nextInt(g.n)
        val q = rnd.nextInt(p.k)
        val pc = st.comm(v)
        if (q != pc) {
          val wvq = weightTo(st, v, q)
          val wvp = weightTo(st, v, pc)
          val predicted = st.leaveGain(v, wvp) + st.joinGain(v, q, wvq)
          val after = {
            val c2 = st.comm.clone(); c2(v) = q
            AllocState.of(g, p, c2).totalThroughput
          }
          assert(math.abs((after - st.totalThroughput) - predicted) < 1e-9,
                 s"v=$v $pc->$q predicted=$predicted actual=${after - st.totalThroughput}")
          st.applyMove(v, q, wvp, wvq)
        }
      }
      assert(before > 0)
    }
  }

  for (seed <- 1 to 10) {
    test(s"incremental applyMove stays consistent with recompute (seed=$seed)") {
      val (g, p, comm) = randomSetup(seed + 100)
      val rnd = new scala.util.Random(seed * 17)
      val st = AllocState.of(g, p, comm)
      for (_ <- 0 until 30) {
        val v = rnd.nextInt(g.n)
        val q = rnd.nextInt(p.k)
        if (q != st.comm(v)) {
          val wvq = weightTo(st, v, q)
          val wvp = weightTo(st, v, st.comm(v))
          st.applyMove(v, q, wvp, wvq)
        }
      }
      val ref = AllocState.of(g, p, st.comm.clone())
      (0 until p.k).foreach { c =>
        assert(math.abs(st.sigma(c) - ref.sigma(c)) < 1e-8, s"sigma($c) drifted")
        assert(math.abs(st.lamHat(c) - ref.lamHat(c)) < 1e-8, s"lamHat($c) drifted")
      }
    }
  }

  for (seed <- 1 to 10) {
    test(s"Lemma 1: a move only changes the two involved communities (seed=$seed)") {
      val (g, p, comm) = randomSetup(seed + 200)
      val rnd = new scala.util.Random(seed * 13)
      val st = AllocState.of(g, p, comm)
      val v = rnd.nextInt(g.n)
      val pc = st.comm(v)
      val q = (pc + 1) % p.k
      val beforeThr = (0 until p.k).map(st.communityThroughput)
      val c2 = st.comm.clone(); c2(v) = q
      val after = AllocState.of(g, p, c2)
      (0 until p.k).filter(c => c != pc && c != q).foreach { c =>
        assert(math.abs(after.communityThroughput(c) - beforeThr(c)) < 1e-10,
               s"community $c changed")
      }
    }
  }

  for (seed <- 1 to 10) {
    test(s"Eq. 6: join gain of an unassigned node matches brute force (seed=$seed)") {
      val (g, p, comm) = randomSetup(seed + 300)
      val rnd = new scala.util.Random(seed * 7)
      // Unassign a random subset.
      val c0 = comm.clone()
      (0 until g.n).foreach(v => if (rnd.nextBoolean()) c0(v) = AllocState.Unassigned)
      val st = AllocState.of(g, p, c0)
      val unassigned = (0 until g.n).filter(st.comm(_) == AllocState.Unassigned)
      if (unassigned.nonEmpty) {
        val v = unassigned(rnd.nextInt(unassigned.length))
        val q = rnd.nextInt(p.k)
        val wvq = weightTo(st, v, q)
        val predicted = st.joinGain(v, q, wvq)
        val c2 = st.comm.clone(); c2(v) = q
        val actual = AllocState.of(g, p, c2).totalThroughput - st.totalThroughput
        assert(math.abs(actual - predicted) < 1e-9, s"v=$v join $q: $predicted vs $actual")
      }
    }
  }

  test("join ignores unassigned neighbors and self-loops") {
    // Id 1 sees only shard 1 (via id 2): its unassigned neighbor id 3 and its
    // self-loop are no candidates, so it cannot fall back to all k shards.
    val g = Graph.fromEdges(Seq((1L, 2L, 1.0), (1L, 3L, 2.0), (1L, 1L, 5.0)))
    val st = new AllocState(g, TxAlloParams(2, 2.0, 10.0, 1e-9))
    st.comm(g.indexOf(2L)) = 1
    val res = st.allocate(Array.emptyIntArray, System.nanoTime())
    assert(res.assign.toSeq == Seq(1, 1, 1))
    assert(res.sweeps == 1)
  }

  test("zero-weight arcs list each neighbour community once") {
    // Node 1's arcs weigh 0.0, so w_{1,0} stays 0.0 after each of them.
    val g = Graph.fromEdges(Seq((1L, 2L, 0.0), (1L, 3L, 0.0), (1L, 4L, 0.0), (2L, 3L, 1.0), (3L, 4L, 1.0)))
    val st = AllocState.of(g, TxAlloParams.default(g, 2, 2.0), Array(AllocState.Unassigned, 0, 0, 0))
    val res = st.allocate(Array.range(0, g.n), System.nanoTime())
    assert(res.assign.forall(s => s >= 0 && s < 2), res.assign.toSeq)
  }
}
