package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.alloc.ShardScheduler
import repro.metis.Metis
import scala.util.hashing.MurmurHash3

/** Pins the exact outputs of the graph build and of every driver-side
  * allocator on random-weight graphs, and the Shard Scheduler's on a random
  * transaction stream. The weights are random doubles, so a change to the
  * order in which duplicate edges are summed moves low bits and changes
  * these hashes; a refactor that keeps them keeps the mappings bit-identical.
  */
class PinnedOutputSpec extends AnyFunSuite {

  private val g = TestUtil.randomGraph(200, 800, 20, seed = 4)

  private def weightHash(g: Graph): Int =
    MurmurHash3.arrayHash((g.wgt ++ g.self).map(java.lang.Double.doubleToLongBits))

  private def fp(a: Array[Int]): Int = MurmurHash3.arrayHash(a)

  /** A step of new edges: fresh accounts 200..249, existing accounts and
    * self-loops, random weights.
    */
  private val step: Seq[(Long, Long, Double)] = {
    val rnd = new scala.util.Random(5)
    (0 until 120).map(_ => (rnd.nextInt(250).toLong, rnd.nextInt(250).toLong, 0.5 + rnd.nextDouble()))
  }

  private def hex(x: Int): String = f"0x$x%08x"

  private def bits(x: Double): String = f"0x${java.lang.Double.doubleToLongBits(x)}%016x"

  test("CSR weights are pinned") {
    assert(hex(weightHash(g)) == "0x608f3fa8")
  }

  test("weights of a graph with many repeated edges are pinned") {
    // Two-term sums commute, so only pairs that repeat three or more times
    // expose the summation order; on 30 nodes about a third of them do.
    val dense = TestUtil.randomGraph(30, 900, 60, seed = 4)
    assert(hex(weightHash(dense)) == "0x03386e0b")
    assert(hex(weightHash(Graph.merge(dense, step))) == "0xf80a0625")
  }

  test("Louvain labels are pinned") {
    assert(hex(fp(Louvain.cluster(g))) == "0xb9812856")
  }

  test("G-TxAllo mapping is pinned") {
    val res = GTxAllo.run(g, TxAlloParams.default(g, 8, 2.0))
    assert(hex(fp(res.assign)) == "0xca938f11")
    assert(bits(res.initThroughput) == "0x4077df9a216a82f3")
    assert(bits(res.finalThroughput) == "0x407823b4f4ca9f6e")
    assert(res.sweeps == 4)
  }

  test("METIS partition is pinned") {
    assert(hex(fp(Metis.partition(g, 4))) == "0x7e046c84")
  }

  test("METIS partition of a graph that coarsens through several levels is pinned") {
    // 3,000 nodes coarsen through 6 matching passes down to 115 nodes, so the
    // partition is projected and refined across every one of those levels.
    val deep = TestUtil.randomGraph(3000, 9000, 100, seed = 4)
    assert(hex(fp(Metis.partition(deep, 2))) == "0xaa8d44d5")
    assert(hex(fp(Metis.partition(deep, 8))) == "0x9d351bdf")
  }

  test("METIS partition of a hub-and-stars graph whose matching stalls is pinned") {
    // A hub joined to 4 star centres with 75 leaves each: the hub is too
    // heavy to match and each centre matches one leaf at most, so the first
    // pass shrinks 305 nodes by under 5% and the graph is seeded as is.
    val rnd = new scala.util.Random(9)
    val spokes = (1 to 4).map(c => (0L, c.toLong, 0.5 + rnd.nextDouble()))
    val leaves = for (c <- 1 to 4; i <- 0 until 75) yield (c.toLong, (100 * c + i).toLong, 0.5 + rnd.nextDouble())
    val hub = Graph.fromEdges(spokes ++ leaves)
    assert(hex(fp(Metis.partition(hub, 2))) == "0xc2e3f58a")
    assert(hex(fp(Metis.partition(hub, 8))) == "0x6dbbe513")
  }

  test("Shard Scheduler mapping is pinned") {
    // A chronological stream over accounts 1..300 with a hub (account 0) in
    // every 7th transaction and 3- and 4-account transactions mixed in.
    val rnd = new scala.util.Random(6)
    val txs = (0 until 3000).map { i =>
      val size = rnd.nextInt(20) match { case 0 => 3; case 1 => 4; case _ => 2 }
      val accs = Iterator.continually(1L + rnd.nextInt(300)).distinct.take(size).toArray
      (i.toLong, if (i % 7 == 0) 0L +: accs.tail else accs)
    }
    def schedulerFp(k: Int): Int = {
      val (m, _) = ShardScheduler.allocate(txs.iterator, k, 2.0)
      assert(m.size == 301)
      fp(m.toArray.sortBy(_._1).map(_._2))
    }
    assert(hex(schedulerFp(4)) == "0x291cac5e")
    assert(hex(schedulerFp(8)) == "0xf6946833")
  }

  test("merged graph and A-TxAllo mapping after a merge are pinned") {
    val prev = GTxAllo.run(g, TxAlloParams.default(g, 8, 2.0)).toMap
    val g1 = Graph.merge(g, step)
    val active = step.flatMap(e => Seq(e._1, e._2)).toSet
    val res = ATxAllo.run(g1, prev, active, TxAlloParams.default(g1, 8, 2.0))
    assert(hex(weightHash(g1)) == "0x2102a872")
    assert(hex(fp(res.assign)) == "0xcb19d9ce")
    assert(bits(res.initThroughput) == "0x407aa81a1277d101")
    assert(bits(res.finalThroughput) == "0x407adcd5563f8b38")
    assert(res.sweeps == 3)
  }
}
