package repro

import repro.core.Graph
import scala.util.Random

/** Deterministic driver-side graph builders for unit tests (no Spark). */
object TestUtil {

  /** Planted-partition graph: `nComm` communities of `perComm` nodes,
    * `intraPerComm` random intra-community edges each and `interTotal`
    * random cross-community edges, all weight 1. Returns the graph and the
    * planted community per account id (id = c * perComm + i).
    */
  def planted(nComm: Int, perComm: Int, intraPerComm: Int, interTotal: Int,
              seed: Long = 7L): (Graph, Map[Long, Int]) = {
    val rnd = new Random(seed)
    val edges = Seq.newBuilder[(Long, Long, Double)]
    for (c <- 0 until nComm) {
      val base = c * perComm
      // spanning ring keeps each community connected
      for (i <- 0 until perComm)
        edges += ((base + i.toLong, base + ((i + 1) % perComm).toLong, 1.0))
      for (_ <- 0 until intraPerComm) {
        val a = base + rnd.nextInt(perComm)
        val b = base + rnd.nextInt(perComm)
        if (a != b) edges += ((a.toLong, b.toLong, 1.0))
      }
    }
    for (_ <- 0 until interTotal) {
      val c1 = rnd.nextInt(nComm)
      val c2 = rnd.nextInt(nComm)
      if (c1 != c2)
        edges += (((c1 * perComm + rnd.nextInt(perComm)).toLong,
                   (c2 * perComm + rnd.nextInt(perComm)).toLong, 1.0))
    }
    val g = Graph.fromEdges(edges.result())
    val plantedComm = (0L until (nComm * perComm).toLong).map(id => id -> (id / perComm).toInt).toMap
    (g, plantedComm)
  }

  /** `n` disjoint cliques of size `m` (ids c*m .. c*m+m-1), weight 1 edges. */
  def cliques(n: Int, m: Int): Graph =
    Graph.fromEdges(for {
      c <- 0 until n
      i <- 0 until m
      j <- (i + 1) until m
    } yield ((c * m + i).toLong, (c * m + j).toLong, 1.0))

  /** Random weighted graph with optional self-loops (for property tests). */
  def randomGraph(n: Int, nEdges: Int, selfLoops: Int, seed: Long): Graph = {
    val rnd = new Random(seed)
    val edges = Seq.newBuilder[(Long, Long, Double)]
    // path backbone so every node exists
    for (i <- 0 until n - 1) edges += ((i.toLong, (i + 1).toLong, 0.5 + rnd.nextDouble()))
    for (_ <- 0 until nEdges) {
      val a = rnd.nextInt(n); val b = rnd.nextInt(n)
      if (a != b) edges += ((a.toLong, b.toLong, 0.5 + rnd.nextDouble()))
    }
    for (_ <- 0 until selfLoops) {
      val v = rnd.nextInt(n).toLong
      edges += ((v, v, 0.5 + rnd.nextDouble()))
    }
    Graph.fromEdges(edges.result())
  }

  /** Array-for-array equality of two graphs, `==` on every weight. */
  def sameGraph(a: Graph, b: Graph): Boolean =
    a.n == b.n && a.ids.sameElements(b.ids) && a.offsets.sameElements(b.offsets) &&
      a.nbr.sameElements(b.nbr) && a.wgt.sameElements(b.wgt) && a.self.sameElements(b.self) &&
      a.strength.sameElements(b.strength)

  /** Population standard deviation. */
  def stddev(xs: Seq[Double]): Double = {
    val mean = xs.sum / xs.size
    math.sqrt(xs.map(x => (x - mean) * (x - mean)).sum / xs.size)
  }
}
