package repro.harness

import java.util.concurrent.{LinkedBlockingQueue, TimeUnit}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.SparkSpec
import repro.jobs.Figures

/** Smoke tests of the table harnesses at tiny scale (the bench project runs
  * them at SF=0.1 and prints the full tables).
  */
class HarnessSpec extends SparkSpec {

  private val sweepCfg = SweepConfig(sf = 0.002, ks = Seq(4, 8), etas = Seq(2.0, 6.0), caseStudyK = 4)
  private val evoCfg = EvolutionConfig(sf = 0.002, k = 4, eta = 2.0, nSteps = 3, hybridGaps = Seq(2))

  private lazy val sweep = Sweep.run(spark, sweepCfg)

  private lazy val evo = Evolution.run(spark, evoCfg)

  /** The number of Spark jobs `body` starts. Listener events arrive
    * asynchronously but in order, so once a marked job run after `body` has
    * been seen, so has every job `body` started.
    */
  private def sparkJobs(body: => Unit): Int = {
    val sc = spark.sparkContext
    val Marker = "end of the counted jobs"
    val starts = new LinkedBlockingQueue[String]
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        starts.put(Option(e.properties).flatMap(p => Option(p.getProperty("spark.job.description"))).getOrElse(""))
    }
    sc.addSparkListener(listener)
    try {
      body
      sc.setJobDescription(Marker)
      try sc.parallelize(Seq(1), 1).count() finally sc.setJobDescription(null)
      Iterator.continually(starts.poll(60, TimeUnit.SECONDS))
        .takeWhile { d => assert(d != null, "the marked job's start never arrived"); d != Marker }
        .size
    } finally sc.removeSparkListener(listener)
  }

  test("each harness starts one Spark job: its ledger collect") {
    assert(sparkJobs(Sweep.run(spark, sweepCfg)) == 1)
    assert(sparkJobs(Evolution.run(spark, evoCfg)) == 1)
  }

  test("sweep produces one row per (method, k, eta)") {
    assert(sweep.rows.size == Sweep.Methods.size * 2 * 2)
    Sweep.Methods.foreach { m =>
      assert(sweep.rows.count(_.method == m) == 4, s"missing rows for $m")
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
    assert(t2.contains("eta = 2.0") && t2.contains("eta = 6.0"))
    Sweep.Methods.foreach(m => assert(t2.contains(m)))
    val t4 = Tables.sweepTables("T4")(sweep)
    assert(Sweep.Methods.forall(t4.contains))
    val t8 = Tables.sweepTables("T8")(sweep)
    assert(t8.contains("T8"))
  }

  test("evolution runs all strategies over all steps") {
    assert(evo.runs.map(_.name) == Seq("pure-G", "pure-A", "hybrid-g2"))
    evo.runs.foreach { r =>
      assert(r.steps.size == 3)
      r.steps.foreach { s =>
        assert(s.normThroughput > 0.0)
        assert(s.updateMillis >= 0)
      }
    }
  }

  test("hybrid strategy uses the global algorithm exactly every gap steps") {
    val hybrid = evo.runs.find(_.name == "hybrid-g2").get
    assert(hybrid.steps.map(_.usedGlobal) == Seq(false, true, false))
    val pureG = evo.runs.find(_.name == "pure-G").get
    assert(pureG.steps.forall(_.usedGlobal))
    val pureA = evo.runs.find(_.name == "pure-A").get
    assert(pureA.steps.forall(!_.usedGlobal))
  }

  test("pure-A throughput stays within 25% of pure-G (paper Fig. 9 shape)") {
    val pg = evo.runs.find(_.name == "pure-G").get.avgThroughput
    val pa = evo.runs.find(_.name == "pure-A").get.avgThroughput
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
