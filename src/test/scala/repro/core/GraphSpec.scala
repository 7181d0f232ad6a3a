package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil

/** Unit tests for the driver-side CSR graph. */
class GraphSpec extends AnyFunSuite {

  private def g3 = Graph.fromEdges(Seq((1L, 2L, 1.0), (2L, 3L, 2.0), (1L, 1L, 0.5)))

  test("node ids are sorted and deduplicated") {
    assert(g3.ids.toSeq == Seq(1L, 2L, 3L))
    assert(g3.n == 3)
  }

  test("strength excludes self-loops") {
    assert(g3.strength(g3.indexOf(1L)) === 1.0)
    assert(g3.strength(g3.indexOf(2L)) === 3.0)
    assert(g3.strength(g3.indexOf(3L)) === 2.0)
  }

  test("self-loop weights are stored separately") {
    assert(g3.self(g3.indexOf(1L)) === 0.5)
    assert(g3.self(g3.indexOf(2L)) === 0.0)
  }

  test("totalWeight counts each proper edge once plus self-loops") {
    assert(math.abs(g3.totalWeight - 3.5) < 1e-12)
  }

  test("duplicate edges in either direction are summed") {
    val g = Graph.fromEdges(Seq((1L, 2L, 1.0), (2L, 1L, 2.5)))
    assert(g.strength(0) === 3.5)
    assert(g.strength(1) === 3.5)
    assert(math.abs(g.totalWeight - 3.5) < 1e-12)
  }

  test("duplicate self-loops are summed") {
    val g = Graph.fromEdges(Seq((5L, 5L, 1.0), (5L, 5L, 2.0)))
    assert(g.n == 1)
    assert(g.self(0) === 3.0)
    assert(g.totalWeight === 3.0)
  }

  test("indexOf finds present ids and returns -1 otherwise") {
    assert(g3.indexOf(2L) == 1)
    assert(g3.indexOf(42L) == -1)
  }

  test("degree counts proper neighbors only") {
    assert(g3.degree(g3.indexOf(1L)) == 1)
    assert(g3.degree(g3.indexOf(2L)) == 2)
  }

  test("adjacency rows are sorted by neighbor index") {
    val g = TestUtil.randomGraph(30, 100, 5, seed = 1)
    (0 until g.n).foreach { v =>
      val row = (g.offsets(v) until g.offsets(v + 1)).map(g.nbr)
      assert(row == row.sorted, s"row of $v not sorted")
    }
  }

  test("foreachNbr visits every neighbor with its weight") {
    var seen = List.empty[(Int, Double)]
    g3.foreachNbr(g3.indexOf(2L))((u, w) => seen ::= (u, w))
    assert(seen.toSet == Set((g3.indexOf(1L), 1.0), (g3.indexOf(3L), 2.0)))
  }

  test("duplicates are summed in input order") {
    // In list order 1e16 absorbs the 1.0, and the -1e16 then cancels to 0.
    val g = Graph.fromEdges(Seq((1L, 2L, 1e16), (2L, 1L, 1.0), (1L, 2L, -1e16)))
    assert(g.wgt.toSeq == Seq(0.0, 0.0))
  }

  test("merge sums overlapping edges and adds new nodes") {
    val g = Graph.fromEdges(Seq((1L, 2L, 1.0)))
    val m = Graph.merge(g, Seq((1L, 2L, 0.5), (2L, 9L, 2.0), (9L, 9L, 1.0)))
    assert(m.n == 3)
    assert(m.strength(m.indexOf(1L)) === 1.5)
    assert(m.strength(m.indexOf(9L)) === 2.0)
    assert(m.self(m.indexOf(9L)) === 1.0)
    assert(math.abs(m.totalWeight - 4.5) < 1e-12)
  }

  test("empty graph") {
    assert(Graph.empty.n == 0)
    assert(Graph.empty.totalWeight == 0.0)
  }

  for (seed <- 1 to 10) {
    test(s"totalWeight equals input weight sum (seed=$seed)") {
      val rnd = new scala.util.Random(seed)
      val edges = (0 until 200).map { _ =>
        val a = rnd.nextInt(50).toLong
        val b = rnd.nextInt(50).toLong
        (a, b, rnd.nextDouble() + 0.1)
      }
      val g = Graph.fromEdges(edges)
      assert(math.abs(g.totalWeight - edges.map(_._3).sum) < 1e-9)
    }
  }

  for (seed <- 1 to 5) {
    test(s"construction is deterministic (seed=$seed)") {
      val a = TestUtil.randomGraph(25, 80, 4, seed)
      val b = TestUtil.randomGraph(25, 80, 4, seed)
      assert(a.ids.toSeq == b.ids.toSeq)
      assert(a.nbr.toSeq == b.nbr.toSeq)
      assert(a.wgt.toSeq == b.wgt.toSeq)
      assert(a.self.toSeq == b.self.toSeq)
    }
  }
}
