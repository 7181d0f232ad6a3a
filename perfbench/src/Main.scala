package perfbench

import org.apache.spark.sql.SparkSession
import repro.chain.{ChainParams, TxGen}

/** Entry point of the TxAllo pipeline benchmark.
  *
  * {{{
  * bash perfbench/run.sh --workload global|adaptive --seed N --seconds S --trace 0|1
  * }}}
  *
  * Each run generates the synthetic ledger at scale factor `Sf` (or `--sf`,
  * which only the build's class-loading run sets) from the seed, sets up its
  * workload (including warm-up reps), measures for at least `S` seconds and
  * a fixed number of reps, and prints one JSON line: whether every check
  * passed, the operations attempted and failed, and with `--trace 0` the
  * end-to-end metrics, with `--trace 1` the per-layer metrics of a traced run.
  * perfbench/README.md defines every metric and maps each layer metric to
  * the end-to-end metric it should move.
  */
object Main {

  /** Ledger scale factor: 120K transactions. Sized so that a run of any
    * workload, set-up included, takes 45-70 seconds on 4 cores.
    */
  val Sf = 0.02

  /** Blocks per A-TxAllo step: 1,500 transactions. */
  val StepBlocks = 10L

  /** Build and scratch directory, relative to the repository root. */
  val BuildDir = ".bench_build/perfbench"

  val WorkloadNames = Seq("global", "adaptive")

  private def usage(msg: String): Nothing = {
    Console.err.println(s"perfbench: $msg\nusage: --workload ${WorkloadNames.mkString("|")} " +
      "--seed N --seconds S --trace 0|1")
    sys.exit(2)
  }

  def main(args: Array[String]): Unit = {
    // Exit explicitly: a failed set-up must not leave Spark threads running.
    val code =
      try { benchmark(args); 0 }
      catch { case scala.util.control.NonFatal(e) => e.printStackTrace(); 1 }
    sys.exit(code)
  }

  private def benchmark(args: Array[String]): Unit = {
    if (args.length % 2 != 0) usage("arguments come in --name value pairs")
    val opts = args.grouped(2).map(a => a(0) -> a(1)).toMap
    val unknown = opts.keySet -- Set("--workload", "--seed", "--seconds", "--trace", "--sf")
    if (unknown.nonEmpty) usage(s"unknown arguments ${unknown.mkString(" ")}")
    val workload = opts.getOrElse("--workload", usage("--workload is required"))
    if (!WorkloadNames.contains(workload)) usage(s"unknown workload $workload")
    val seed = opts.get("--seed").map(_.toLong).getOrElse(42L)
    val seconds = opts.get("--seconds").map(_.toInt).getOrElse(12)
    val sf = opts.get("--sf").map(_.toDouble).getOrElse(Sf)
    val trace = opts.getOrElse("--trace", "0") match {
      case "0" => false
      case "1" => true
      case t => usage(s"--trace must be 0 or 1, not $t")
    }

    val spark = SparkSession.builder
      .master(s"local[${math.min(4, Runtime.getRuntime.availableProcessors)}]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.warehouse.dir", s"$BuildDir/warehouse")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val jvmStart = java.lang.management.ManagementFactory.getRuntimeMXBean.getStartTime
    Console.err.println(f"perfbench: session started after ${(System.currentTimeMillis() - jvmStart) / 1000.0}%.1f s")
    val tracer = new Tracer(trace, spark.sparkContext)

    val params = ChainParams.atScale(sf, seed)
    val (txs, _) = tracer.span("txgen.generate") {
      val df = TxGen.transactions(spark, params).cache()
      df.count()
      df
    }
    val ledger = Ledger.collect(txs)
    val run = new Run(spark, params, txs, ledger, tracer, seconds)
    run.count("txgen.txs", ledger.nTx)
    run.count("txgen.accounts", ledger.allAccounts.length)
    Console.err.println(f"perfbench: ledger sf=$sf seed=$seed: ${ledger.nTx} txs, " +
      f"${ledger.allAccounts.length} accounts, collected after ${(System.currentTimeMillis() - jvmStart) / 1000.0}%.1f s")

    workload match {
      case "global" => Workloads.global(run, warmup = 2, minReps = 3)
      case "adaptive" => Workloads.adaptive(run, warmup = 3, minSteps = 5, StepBlocks)
    }

    val spans = tracer.all
    val metrics = if (trace) Report.perLayer(run, spans) else Report.endToEnd(run)
    if (trace) {
      val out = java.nio.file.Paths.get(s"$BuildDir/traces/$workload-seed$seed.jsonl")
      tracer.write(out, spans)
      Console.err.println(s"perfbench: ${spans.length} spans written to $out")
    }
    spark.stop()
    println(Report.json(run.failed == 0, run.attempted, run.failed, metrics))
  }
}
