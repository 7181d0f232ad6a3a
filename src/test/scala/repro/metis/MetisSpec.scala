package repro.metis

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core.{AllocState, Graph, GraphMetrics, TxAlloParams}

/** METIS-like multilevel partitioner: invariants, balance, cut quality. */
class MetisSpec extends AnyFunSuite {

  /** The vertex weight `Metis.partition` balances: W_v + 2 w_vv. */
  private def activity(g: Graph): Array[Double] =
    Array.tabulate(g.n)(v => g.strength(v) + 2 * g.self(v))

  test("produces a complete partition with shards in [0, k)") {
    val (g, _) = TestUtil.planted(6, 15, 40, 30)
    val part = Metis.partition(g, 4)
    assert(part.length == g.n)
    part.foreach(s => assert(s >= 0 && s < 4))
  }

  for (seed <- 1 to 5) {
    test(s"deterministic (seed=$seed)") {
      val g = TestUtil.randomGraph(70, 250, 8, seed)
      assert(Metis.partition(g, 5).toSeq == Metis.partition(g, 5).toSeq)
    }
  }

  test("k = 1 puts everything in part 0") {
    val g = TestUtil.cliques(3, 4)
    assert(Metis.partition(g, 1).forall(_ == 0))
  }

  test("empty graph") {
    assert(Metis.partition(Graph.empty, 4).isEmpty)
  }

  test("disjoint cliques with matching k get a zero cut") {
    val g = TestUtil.cliques(4, 8)
    val part = Metis.partition(g, 4)
    assert(GraphMetrics.cutRatio(g, part) == 0.0)
  }

  test("planted partition: cut well below random") {
    val (g, _) = TestUtil.planted(6, 20, 60, 40, seed = 13)
    val part = Metis.partition(g, 6)
    val cut = GraphMetrics.cutRatio(g, part)
    val rnd = new scala.util.Random(1)
    val randomCut = GraphMetrics.cutRatio(g, Array.fill(g.n)(rnd.nextInt(6)))
    assert(cut < randomCut / 2, s"metis cut $cut vs random $randomCut")
    assert(cut < 0.3, s"cut too high: $cut")
  }

  test("vertex-weight balance holds up to the cap plus one node") {
    val (g, _) = TestUtil.planted(8, 15, 40, 30, seed = 17)
    val nodeW = activity(g)
    val k = 4
    val part = Metis.partition(g, k)
    val loads = new Array[Double](k)
    (0 until g.n).foreach(v => loads(part(v)) += nodeW(v))
    val cap = nodeW.sum / k * 1.05
    val maxNode = nodeW.max
    loads.foreach(l => assert(l <= cap + maxNode + 1e-9, s"load $l exceeds cap $cap"))
  }

  test("coarsening conserves total vertex weight and shrinks the graph") {
    val g = TestUtil.randomGraph(100, 400, 10, seed = 3)
    val nodeW = activity(g)
    val (coarse, coarseW, map) = Metis.coarsen(g, nodeW, Double.PositiveInfinity)
    assert(coarse.n < g.n)
    assert(math.abs(coarseW.sum - nodeW.sum) < 1e-9)
    assert(map.length == g.n)
    map.foreach(c => assert(c >= 0 && c < coarse.n))
  }

  test("refinement never increases the cut") {
    val g = TestUtil.randomGraph(80, 350, 5, seed = 6)
    val rnd = new scala.util.Random(2)
    val start = Array.fill(g.n)(rnd.nextInt(4))
    val before = GraphMetrics.cutRatio(g, start)
    val after = GraphMetrics.cutRatio(g, Metis.refine(g, activity(g), start.clone(), 4))
    assert(after <= before + 1e-9, s"cut went up: $before -> $after")
  }

  test("initial partition respects the feasibility cap when possible") {
    val g = Graph.build(Array(0L, 1L, 2L, 3L), Array.emptyIntArray, Array.emptyIntArray,
                        Array.emptyDoubleArray)
    val part = Metis.seed(g, Array(1.0, 1.0, 1.0, 1.0), 2)
    val loads = new Array[Double](2)
    (0 until 4).foreach(v => loads(part(v)) += 1.0)
    assert(loads.toSeq == Seq(2.0, 2.0))
  }

  test("a hub-heavy graph overloads one shard in *workload* terms") {
    // Star around node 0 (the hub) + background cliques: METIS balances vertex
    // weight, so the hub shard's eta-aware workload ends up above average —
    // the paper's core criticism (Fig. 4b).
    val star = (1 to 60).map(i => (0L, (1000 + i).toLong, 1.0))
    val cliques = for { c <- 0 until 4; i <- 0 until 6; j <- (i + 1) until 6 }
      yield ((100 + c * 10 + i).toLong, (100 + c * 10 + j).toLong, 1.0)
    val g = Graph.fromEdges(star ++ cliques)
    val part = Metis.partition(g, 4)
    val eta = 4.0
    val loads = AllocState.of(g, TxAlloParams.default(g, 4, eta), part).sigma
    val mean = loads.sum / 4
    assert(loads.max > 1.2 * mean, s"expected an overloaded shard, loads=${loads.toSeq}")
  }

  test("refinement lists each neighbour part once under zero-weight arcs") {
    val g = Graph.fromEdges(Seq((1L, 2L, 0.0), (1L, 3L, 0.0), (1L, 4L, 0.0), (2L, 3L, 1.0), (3L, 4L, 1.0)))
    val part = Metis.refine(g, Array(1.0, 1.0, 1.0, 1.0), Array(1, 0, 0, 0), 2)
    assert(part.forall(s => s >= 0 && s < 2), part.toSeq)
  }
}
