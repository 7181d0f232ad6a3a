package repro.harness

import java.util.concurrent.{LinkedBlockingQueue, TimeUnit}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import repro.SparkSpec
import repro.chain.{ChainParams, Incidence, TxGen}
import repro.core.{ATxAllo, GTxAllo, Graph, TxAlloParams, TxGraph}
import repro.eval.Metrics
import repro.jobs.Figures

/** Smoke tests of the table harnesses on the production grid at a tiny
  * scale (the bench project runs them at SF=0.1 and prints the full tables).
  */
class HarnessSpec extends SparkSpec {

  /** The smallest scale in steps of 0.001 whose stream after the bootstrap
    * fills every step: 120 blocks, 108 of them bootstrap, one per step.
    */
  private val Sf = 0.003

  private lazy val ledger = TxGen.collectByTxId(TxGen.transactions(spark, ChainParams.atScale(Sf)))

  private lazy val sweep = Sweep.run(ledger)

  private lazy val evo = Evolution.run(ledger)

  private def strategy(name: String): StrategyRun = evo.runs.find(_.name == name).get

  /** The number of Spark jobs `body` starts and the shuffle bytes their tasks
    * write. Listener events arrive asynchronously but in order, so once a
    * marked job run after `body` has been seen, so has every job and task end
    * of `body`.
    */
  private def sparkJobs(body: => Unit): (Int, Long) = {
    val sc = spark.sparkContext
    val Marker = "end of the counted jobs"
    val starts = new LinkedBlockingQueue[String]
    @volatile var shuffleBytes = 0L
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        starts.put(Option(e.properties).flatMap(p => Option(p.getProperty("spark.job.description"))).getOrElse(""))
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        Option(e.taskMetrics).foreach(m => shuffleBytes += m.shuffleWriteMetrics.bytesWritten)
    }
    sc.addSparkListener(listener)
    try {
      body
      sc.setJobDescription(Marker)
      try sc.parallelize(Seq(1), 1).count() finally sc.setJobDescription(null)
      val jobs = Iterator.continually(starts.poll(60, TimeUnit.SECONDS))
        .takeWhile { d => assert(d != null, "the marked job's start never arrived"); d != Marker }
        .size
      (jobs, shuffleBytes)
    } finally sc.removeSparkListener(listener)
  }

  test("each harness starts one Spark job: its ledger collect") {
    def collected = TxGen.collectByTxId(TxGen.transactions(spark, ChainParams.atScale(Sf)))
    assert(sparkJobs(Sweep.run(collected)) == ((1, 0L)))
    assert(sparkJobs(Evolution.run(collected)) == ((1, 0L)))
    // The one job is the collect: given the ledger, a harness starts none,
    // and Figures collects once for both.
    ledger
    assert(sparkJobs(Sweep.run(ledger)) == ((0, 0L)))
    assert(sparkJobs(Evolution.run(ledger)) == ((0, 0L)))
    val out = new java.io.ByteArrayOutputStream
    assert(sparkJobs(Console.withOut(out)(Figures.main(Array(Sf.toString)))) == ((1, 0L)))
    Tables.ids.foreach(id => assert(out.toString.contains(s"== $id "), s"$id missing from:\n$out"))
  }

  test("evolution rejects a ledger too short for its steps, naming both counts") {
    // At SF 0.002 the ledger has 80 blocks: 72 bootstrap and 8 left for 12 steps.
    val short = TxGen.collectByTxId(TxGen.transactions(spark, ChainParams.atScale(0.002)))
    val e = intercept[IllegalArgumentException](Evolution.run(short))
    assert(e.getMessage.contains("8 blocks") && e.getMessage.contains(s"${Evolution.Steps} steps"), e.getMessage)
  }

  test("sweep produces one row per (method, k, eta)") {
    val cells = Sweep.Ks.size * Sweep.Etas.size
    assert(sweep.rows.size == Sweep.Methods.size * cells)
    Sweep.Methods.foreach { m =>
      assert(sweep.rows.count(_.method == m) == cells, s"missing rows for $m")
    }
  }

  test("sweep metrics are in range") {
    sweep.rows.foreach { r =>
      assert(r.gamma >= 0.0 && r.gamma <= 1.0, s"$r")
      assert(r.normThroughput > 0.0 && r.normThroughput <= r.k + 1e-9, s"$r")
      assert(r.avgLatency >= 1.0 && r.worstLatency >= r.avgLatency - 1e-9, s"$r")
      assert(r.allocNanos >= 0)
      assert(r.metrics.nTx == sweep.nTx, s"$r evaluated ${r.metrics.nTx} of ${sweep.nTx} transactions")
    }
  }

  test("sweep tables render every cell") {
    val t2 = Tables.sweepTables("T2")(sweep)
    assert(!t2.contains("         -"), s"missing cell in:\n$t2")
    Sweep.Etas.foreach(eta => assert(t2.contains(s"eta = $eta")))
    Sweep.Methods.foreach(m => assert(t2.contains(m)))
    val t4 = Tables.sweepTables("T4")(sweep)
    assert(Sweep.Methods.forall(t4.contains))
    val t8 = Tables.sweepTables("T8")(sweep)
    assert(t8.contains("T8"))
  }

  test("evolution runs all strategies over all steps") {
    assert(evo.runs.map(_.name) == Seq("pure-G", "pure-A") ++ Evolution.HybridGaps.map(g => s"hybrid-g$g"))
    evo.runs.foreach { r =>
      assert(r.steps.size == Evolution.Steps)
      r.steps.foreach { s =>
        assert(s.normThroughput > 0.0)
        assert(s.updateNanos > 0)
      }
    }
  }

  test("hybrid strategy uses the global algorithm exactly every gap steps") {
    for (g <- Evolution.HybridGaps) {
      val hybrid = strategy(s"hybrid-g$g")
      assert(hybrid.steps.map(_.usedGlobal) == (1 to Evolution.Steps).map(_ % g == 0))
    }
    val pureG = strategy("pure-G")
    assert(pureG.steps.forall(_.usedGlobal))
    val pureA = strategy("pure-A")
    assert(pureA.steps.forall(!_.usedGlobal))
  }

  /** The evolution study without shared calls, as a reference: each
    * strategy runs G- or A-TxAllo itself, from its own `toMap` copy of its
    * previous mapping, and evaluates its own result. Per strategy, in
    * `Evolution`'s order, each step's throughput and whether it refreshed.
    */
  private def ownCalls(ledger: Incidence): Seq[Seq[(Double, Boolean)]] = {
    import Evolution._
    val accounts = ledger.accounts
    def blocks(lo: Long, hi: Long) = ledger.offsets.slice(ledger.firstTxOf(lo), ledger.firstTxOf(hi) + 1)
    val nBlocks = ledger.block.last + 1
    val trainBlocks = (nBlocks * TrainFrac).toLong
    val stepBlocks = (nBlocks - trainBlocks) / Steps
    var graph = TxGraph.fromIncidence(blocks(0, trainBlocks), accounts)
    val bootstrap = GTxAllo.run(graph, TxAlloParams.default(graph, K, Eta))
    val gaps = Seq(Some(1), None) ++ HybridGaps.map(Some(_))
    val assigns = Array.fill(gaps.size)(bootstrap.toMap)
    val records = Array.fill(gaps.size)(Vector.newBuilder[(Double, Boolean)])
    for (t <- 0 until Steps) {
      val lo = trainBlocks + t * stepBlocks
      val stepOffsets = blocks(lo, lo + stepBlocks)
      val delta = TxGraph.fromIncidence(stepOffsets, accounts)
      val active = delta.ids.toSet
      graph = Graph.merge(graph, TxGraph.edgeRows(delta))
      val p = TxAlloParams.default(graph, K, Eta)
      for ((gapOpt, i) <- gaps.zipWithIndex) {
        val useGlobal = gapOpt.exists(g => (t + 1) % g == 0)
        val res =
          if (useGlobal) GTxAllo.run(graph, p)
          else ATxAllo.run(graph, assigns(i), active, p)
        assigns(i) = res.toMap
        val m = Metrics.evaluateIncidence(stepOffsets, accounts, res.ids, res.assign, K, Eta)
        records(i) += ((m.normThroughput, useGlobal))
      }
    }
    records.toSeq.map(_.result())
  }

  test("every strategy's throughput equals its own calls' exactly, at every step") {
    assert(evo.runs.map(_.steps.map(s => (s.normThroughput, s.usedGlobal))) == ownCalls(ledger))
  }

  test("at a refresh step, every refreshing hybrid reports pure-G's one G-TxAllo call") {
    val pureG = strategy("pure-G").steps
    for (g <- Evolution.HybridGaps; (s, t) <- strategy(s"hybrid-g$g").steps.zipWithIndex if s.usedGlobal)
      assert(s.updateNanos == pureG(t).updateNanos, s"hybrid-g$g step $t: ${s.updateNanos} vs ${pureG(t).updateNanos} ns")
  }

  test("pure-A and hybrid-g10 share every record until hybrid-g10's first refresh") {
    // hybrid-g10 refreshes first at step 9: both hold the same mapping through step 8.
    assert(strategy("pure-A").steps.take(9) == strategy("hybrid-g10").steps.take(9))
  }

  test("pure-A throughput stays within 25% of pure-G (paper Fig. 9 shape)") {
    val pg = strategy("pure-G").avgThroughput
    val pa = strategy("pure-A").avgThroughput
    assert(pa >= 0.75 * pg, s"pure-A $pa vs pure-G $pg")
  }

  test("evolution tables render") {
    val t9 = Tables.evolutionTables("T9")(evo)
    assert(t9.contains("T9") && t9.contains("pure-G") && t9.contains("avg"))
    val t10 = Tables.evolutionTables("T10")(evo)
    assert(t10.contains("T10") && t10.contains("(G)") && t10.contains("(A)"))
  }

  test("catalogue ids are unique and cover T2-T10") {
    assert(Tables.ids == (2 to 10).map(i => s"T$i"))
    assert(Tables.ids.distinct == Tables.ids)
  }

  test("every catalogue table renders under its own id") {
    val rendered = Tables.sweepTables.map { case (id, render) => id -> render(sweep) } ++
      Tables.evolutionTables.map { case (id, render) => id -> render(evo) }
    assert(rendered.keys.toSeq == Tables.ids)
    rendered.foreach { case (id, text) => assert(text.startsWith(s"== $id "), text) }
  }

  test("Figures parses an optional scale factor, then table ids") {
    assert(Figures.parse(Array()) == ((0.1, Tables.ids)))
    assert(Figures.parse(Array("0.5")) == ((0.5, Tables.ids)))
    assert(Figures.parse(Array("T9", "T2")) == ((0.1, Seq("T9", "T2"))))
    assert(Figures.parse(Array("0.02", "T4")) == ((0.02, Seq("T4"))))
  }

  test("Figures rejects a scale factor that is not finite and positive before any Spark work") {
    for (sf <- Seq("0", "-1", "NaN", "Infinity", "-Infinity")) {
      val out = new java.io.ByteArrayOutputStream
      val e = intercept[IllegalArgumentException] {
        Console.withOut(out)(Figures.main(Array(sf, "T2")))
      }
      assert(e.getMessage.contains(s"got ${sf.toDouble}"), e.getMessage)
      assert(out.size == 0)
    }
  }

  test("Figures rejects an unknown id before any Spark work") {
    // T2 comes first: were ids checked only as tables are printed, its sweep
    // would run and print before T11 failed.
    val out = new java.io.ByteArrayOutputStream
    val e = intercept[IllegalArgumentException] {
      Console.withOut(out)(Figures.main(Array("0.002", "T2", "T11")))
    }
    assert(e.getMessage.contains("T11"))
    Tables.ids.foreach(id => assert(e.getMessage.contains(id)))
    assert(out.size == 0)
  }
}
