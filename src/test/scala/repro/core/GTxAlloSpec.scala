package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** G-TxAllo (Algorithm 1): invariants, determinism, structure recovery,
  * throughput optimization, self-adjustment.
  */
class GTxAlloSpec extends AnyFunSuite {

  private def run(g: Graph, k: Int, eta: Double = 2.0): AllocResult =
    GTxAllo.run(g, TxAlloParams.default(g, k, eta))

  test("Definition 1: every node gets exactly one shard in [0, k)") {
    val (g, _) = TestUtil.planted(6, 15, 40, 30)
    val res = run(g, 4)
    assert(res.assign.length == g.n)
    res.assign.foreach(s => assert(s >= 0 && s < 4))
  }

  for (seed <- 1 to 5) {
    test(s"deterministic output (seed=$seed)") {
      val g = TestUtil.randomGraph(80, 300, 10, seed)
      val a = run(g, 5).assign.toSeq
      val b = run(g, 5).assign.toSeq
      assert(a == b)
    }
  }

  test("optimization never decreases the modeled throughput") {
    for (seed <- 1 to 8) {
      val g = TestUtil.randomGraph(60, 250, 8, seed)
      val res = run(g, 4)
      assert(res.finalThroughput >= res.initThroughput - 1e-9,
             s"seed=$seed: ${res.finalThroughput} < ${res.initThroughput}")
    }
  }

  test("final throughput matches a from-scratch recomputation") {
    val (g, _) = TestUtil.planted(5, 12, 30, 20)
    val p = TxAlloParams.default(g, 3, 2.0)
    val res = GTxAllo.run(g, p)
    val st = AllocState.of(g, p, res.assign)
    assert(math.abs(st.totalThroughput - res.finalThroughput) < 1e-7)
  }

  test("recovers a planted partition: k communities, low cut") {
    val (g, plantedComm) = TestUtil.planted(4, 25, 80, 20, seed = 11)
    val res = run(g, 4)
    val cut = GraphMetrics.cutRatio(g, res.assign)
    assert(cut < 0.15, s"cut ratio too high: $cut")
    // planted communities stay (mostly) together
    (0 until 4).foreach { q =>
      val labels = (0 until 25).map(i => res.assign(g.indexOf((q * 25 + i).toLong)))
      val majority = labels.groupBy(identity).values.map(_.size).max
      assert(majority >= 20, s"planted community $q fragmented")
    }
    assert(plantedComm.size == g.n)
  }

  test("disjoint cliques with k equal to clique count give a perfect cut") {
    val g = TestUtil.cliques(4, 8)
    val res = run(g, 4)
    assert(GraphMetrics.cutRatio(g, res.assign) == 0.0)
    val sizes = res.assign.groupBy(identity).values.map(_.length).toSeq.sorted
    assert(sizes == Seq(8, 8, 8, 8))
  }

  test("k = 1 puts everything in shard 0") {
    val g = TestUtil.cliques(2, 5)
    val res = run(g, 1)
    assert(res.assign.forall(_ == 0))
    assert(math.abs(res.finalThroughput - g.totalWeight) < 1e-9)
  }

  test("l < k (fewer Louvain communities than shards) still satisfies Definition 1") {
    val g = TestUtil.cliques(2, 6) // Louvain finds 2 communities, ask for 8
    val res = run(g, 8)
    res.assign.foreach(s => assert(s >= 0 && s < 8))
    assert(GraphMetrics.cutRatio(g, res.assign) == 0.0) // no reason to split cliques
  }

  test("self-loop-only nodes are allocated (forced candidate set)") {
    val g = Graph.fromEdges(Seq((1L, 2L, 1.0), (9L, 9L, 1.0), (8L, 8L, 1.0)))
    val res = run(g, 2)
    res.assign.foreach(s => assert(s >= 0 && s < 2))
  }

  test("capacity pressure splits an oversized community across shards") {
    // One giant clique (weight >> lambda) plus two small ones, with weak
    // bridges so Eq. 9 candidate sets are non-empty (a fully isolated
    // community can never be split — candidates are connected communities
    // only, faithful to the paper). With k=3 and lambda = totalWeight/3 the
    // giant clique must shed nodes to gain throughput.
    val big = for { i <- 0 until 30; j <- (i + 1) until 30 }
      yield (i.toLong, j.toLong, 1.0)
    val small = for { c <- 0 until 2; i <- 0 until 4; j <- (i + 1) until 4 }
      yield ((100 + c * 4 + i).toLong, (100 + c * 4 + j).toLong, 1.0)
    val bridges = (0 until 30).map(i => (i.toLong, (100 + (i % 8)).toLong, 0.02))
    val g = Graph.fromEdges(big ++ small ++ bridges)
    val res = run(g, 3, eta = 2.0)
    val shardsOfBig = (0 until 30).map(i => res.assign(g.indexOf(i.toLong))).toSet
    assert(shardsOfBig.size > 1, "giant clique was not split despite capacity pressure")
  }

  test("self-adjustment: larger eta does not increase the cut ratio") {
    val (g, _) = TestUtil.planted(8, 15, 40, 60, seed = 21)
    val cutLow = GraphMetrics.cutRatio(g, run(g, 6, eta = 2.0).assign)
    val cutHigh = GraphMetrics.cutRatio(g, run(g, 6, eta = 10.0).assign)
    assert(cutHigh <= cutLow + 0.03, s"eta=10 cut $cutHigh vs eta=2 cut $cutLow")
  }

  test("ids in the result are the graph's account ids") {
    val (g, _) = TestUtil.planted(3, 10, 20, 10)
    val res = run(g, 3)
    assert(res.ids.toSeq == g.ids.toSeq)
    assert(res.toMap.size == g.n)
  }

  test("empty graph yields an empty allocation") {
    val res = GTxAllo.run(Graph.empty, TxAlloParams(3, 2.0, 1.0, 1e-9))
    assert(res.assign.isEmpty)
  }

  test("converges within the sweep cap") {
    val (g, _) = TestUtil.planted(6, 20, 50, 40, seed = 31)
    val res = run(g, 5)
    assert(res.sweeps < 500, s"hit the sweep cap: ${res.sweeps}")
  }
}
