package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.eval.Latency

/** ScalaCheck properties for the numeric kernels (raw ScalaCheck runner — the
  * scalatestplus bridge is not on the offline classpath).
  */
class PropertySpec extends AnyFunSuite {

  private def check(name: String, prop: Prop, n: Int = 100): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(n), prop)
    assert(res.passed, s"$name failed: ${res.status}")
  }

  private val genEdges: Gen[List[(Long, Long, Double)]] =
    Gen.listOfN(
      60,
      for {
        a <- Gen.choose(0L, 19L)
        b <- Gen.choose(0L, 19L)
        w <- Gen.choose(1, 100).map(_ / 10.0)
      } yield (a, b, w))

  test("graph total weight equals the sum of input edge weights") {
    check("totalWeight", Prop.forAll(genEdges) { edges =>
      val g = Graph.fromEdges(edges)
      math.abs(g.totalWeight - edges.map(_._3).sum) < 1e-6
    })
  }

  test("merging no edges returns the same graph") {
    check("merge-nil", Prop.forAll(genEdges) { edges =>
      val g = Graph.fromEdges(edges)
      TestUtil.sameGraph(Graph.merge(g, Nil), g)
    })
  }

  test("a merged graph equals the graph built from scratch") {
    check("merge-scratch", Prop.forAll(genEdges, genEdges) { (a, b) =>
      TestUtil.sameGraph(Graph.merge(Graph.fromEdges(a), b), Graph.fromEdges(a ++ b))
    })
  }

  test("rank equals sort + distinct + binarySearch on any range") {
    val genId = Gen.frequency(
      4 -> Gen.choose(-20L, 20L),                                      // many duplicates, negative ids
      1 -> Gen.oneOf(Long.MinValue, Long.MinValue + 1, Long.MaxValue - 1, Long.MaxValue),
      1 -> Gen.choose(0L, 63L).map(_ << 40),                           // equal low bits
      1 -> Gen.choose(Long.MinValue, Long.MaxValue))
    val gen = for {
      xs <- Gen.choose(0, 300).flatMap(Gen.listOfN(_, genId)).map(_.toArray)
      lo <- Gen.choose(0, xs.length)
      hi <- Gen.choose(lo, xs.length)
    } yield (xs, lo, hi)
    def matches(xs: Array[Long], lo: Int, hi: Int): Boolean = {
      val (ids, idx) = Graph.rank(xs, lo, hi)
      val want = xs.slice(lo, hi).distinct.sorted
      ids.sameElements(want) && idx.sameElements(xs.slice(lo, hi).map(java.util.Arrays.binarySearch(want, _)))
    }
    check("rank", Prop.forAll(gen) { case (xs, lo, hi) => matches(xs, lo, hi) }, n = 500)
    val big = Array.fill(100000)(scala.util.Random.nextLong() % 30000)
    assert(matches(big, 0, big.length) && matches(big, 77, 99000) && matches(big, 5, 5))
    assert(matches(Array.emptyLongArray, 0, 0))
  }

  test("latency equals numeric integration of ceil(x)/sigmaHat") {
    val genS = Gen.choose(1, 8000).map(_ / 1000.0)
    check("latency-integral", Prop.forAll(genS) { s =>
      val steps = 200000
      val dx = s / steps
      val numeric = (0 until steps).map(i => math.ceil((i + 0.5) * dx)).sum * dx / s
      math.abs(Latency.avgLatency(s) - numeric) < 2e-3
    })
  }

  test("latency matches the paper's closed form at non-integer workloads") {
    val genS = Gen.choose(1, 10000).map(_ / 997.0).suchThat(s => s != math.floor(s))
    check("latency-paper-form", Prop.forAll(genS) { s =>
      val paper = math.floor(s) * math.ceil(s) / (2 * s) +
        (s - math.floor(s)) * math.ceil(s) / s
      math.abs(Latency.avgLatency(s) - paper) < 1e-9
    })
  }

  test("latency is >= 1 and monotonically non-decreasing") {
    val gen = for {
      a <- Gen.choose(0, 5000).map(_ / 500.0)
      b <- Gen.choose(0, 5000).map(_ / 500.0)
    } yield (math.min(a, b), math.max(a, b))
    check("latency-monotone", Prop.forAll(gen) { case (lo, hi) =>
      Latency.avgLatency(lo) >= 1.0 - 1e-12 &&
      Latency.avgLatency(lo) <= Latency.avgLatency(hi) + 1e-9
    })
  }

  test("throughput never exceeds total weight for any full assignment") {
    val gen = for {
      edges <- genEdges
      k <- Gen.choose(1, 5)
      eta <- Gen.choose(10, 80).map(_ / 10.0)
      seed <- Gen.choose(0, 1000)
    } yield (edges, k, eta, seed)
    check("thr-cap", Prop.forAll(gen) { case (edges, k, eta, seed) =>
      val g = Graph.fromEdges(edges)
      if (g.n == 0) true
      else {
        val rnd = new scala.util.Random(seed)
        val st = AllocState.of(g, TxAlloParams(k, eta, math.max(g.totalWeight, 1.0) / k, 1e-9),
                               Array.fill(g.n)(rnd.nextInt(k)))
        st.totalThroughput <= g.totalWeight + 1e-9
      }
    })
  }
}
