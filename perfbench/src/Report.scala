package perfbench

/** Turns a run's samples and spans into the metrics of the result line. */
object Report {

  final case class Metric(name: String, value: Double, unit: String)

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val n = s.length
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }

  def endToEnd(r: Run): Seq[Metric] = {
    def list(xs: Iterable[Double]) = xs.map(x => f"$x%.3f").mkString(" ")
    Console.err.println(s"perfbench: ${r.failed} of ${r.attempted} operations failed; " +
      s"alloc seconds [${list(r.allocSeconds)}], eval seconds [${list(r.evalSeconds)}]")
    Seq(
      Metric("setup_s", (r.setupEndMillis - r.jvmStartMillis) / 1000.0, "s"),
      Metric("alloc_p50_s", median(r.allocSeconds.toSeq), "s"),
      Metric("eval_p50_s", median(r.evalSeconds.toSeq), "s"),
      Metric("norm_throughput", r.normThroughput.sum / math.max(r.normThroughput.length, 1), "x_lambda"),
      Metric("heap_retained_mb", r.heapRetainedMb, "MB"))
  }

  /** Every span name the benchmark records; "op" is one rep or step. */
  val SpanNames = Seq("txgen.generate", "txgraph.edges", "txgraph.active", "graph.from_edges",
    "graph.merge", "louvain.cluster", "gtxallo.run", "atxallo.run", "metis.partition",
    "scheduler.allocate", "hash.allocate", "alloc.to_df", "metrics.evaluate", "op")

  /** Spans whose calls run Spark jobs. */
  val SparkSpans = Seq("txgen.generate", "txgraph.edges", "txgraph.active", "hash.allocate",
    "metrics.evaluate")

  val Counts = Seq(
    "txgen.txs" -> "count", "txgen.accounts" -> "count", "txgraph.edge_rows" -> "count",
    "graph.nodes" -> "count", "graph.arcs" -> "count", "graph.bytes" -> "bytes",
    "louvain.communities" -> "count", "gtxallo.after_louvain_s" -> "s",
    "gtxallo.sweeps" -> "count", "gtxallo.ms_per_sweep" -> "ms", "gtxallo.cap_hit" -> "count",
    "atxallo.sweeps" -> "count", "atxallo.active" -> "count", "atxallo.new_accounts" -> "count",
    "metis.cut_ratio" -> "ratio", "metrics.gamma" -> "ratio", "metrics.rho_norm" -> "ratio",
    "metrics.worst_latency" -> "blocks")

  /** Per-call medians over the measured phase, or over set-up for a layer
    * that only runs there (such as the adaptive bootstrap). A layer the
    * workload never calls reads 0.
    */
  def perLayer(r: Run, spans: Seq[Span]): Seq[Metric] = {
    def preferMeasured[A](xs: Seq[(A, Boolean)]): Seq[A] =
      if (xs.exists(_._2)) xs.filter(_._2).map(_._1) else xs.map(_._1)
    val self = r.tracer.selfSeconds(spans)
    val byName = spans.groupBy(_.name).map { case (n, ss) => n -> preferMeasured(ss.map(s => (s, s.measured))) }
    val layers = SpanNames.flatMap { n =>
      val ss = byName.getOrElse(n, Nil)
      Seq(Metric(s"${n}_s", median(ss.map(s => self(s.id))), "s"),
          Metric(s"$n.gc_s", median(ss.map(_.gcNanos / 1e9)), "s")) ++
        (if (!SparkSpans.contains(n)) Nil
         else Seq(
           Metric(s"$n.tasks", median(ss.map(s => r.tracer.sparkWork(s.id).tasks.toDouble)), "count"),
           Metric(s"$n.shuffle_bytes",
                  median(ss.map(s => r.tracer.sparkWork(s.id).shuffleBytes.toDouble)), "bytes")))
    }
    val counts = Counts.map { case (n, unit) =>
      Metric(n, median(preferMeasured(r.counts.getOrElse(n, Nil).toSeq)), unit)
    }
    val traced = endToEnd(r)
    layers ++ counts ++ Seq(
      Metric("trace.bookkeeping_s", r.tracer.bookkeepingSeconds, "s"),
      Metric("trace.alloc_p50_s", traced.find(_.name == "alloc_p50_s").get.value, "s"),
      Metric("trace.eval_p50_s", traced.find(_.name == "eval_p50_s").get.value, "s"))
  }

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) "0" else java.lang.Double.toString(v)

  def json(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[Metric]): String =
    metrics.map(m => s""""${m.name}": {"value": ${num(m.value)}, "unit": "${m.unit}"}""")
      .mkString(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {""", ", ", "}}")
}
