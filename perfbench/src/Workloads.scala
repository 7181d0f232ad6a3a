package perfbench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.alloc.{Alloc, HashAllocator, ShardScheduler}
import repro.chain.TxGen
import repro.core.{ATxAllo, AllocResult, GTxAllo, Graph, GraphMetrics, Louvain, TxAlloParams, TxGraph}
import repro.eval.{Metrics, MetricsResult}
import repro.metis.Metis

/** The two workloads. Each replays the call sequence of the harness it
  * comes from (`harness.Sweep` for global, `harness.Evolution` for adaptive)
  * and times every call into a layer.
  */
object Workloads {

  val Eta = 2.0

  /** Edge list collected to the driver (the input of `Graph.fromEdges`). */
  private def collectEdges(r: Run, txs: DataFrame): (Array[(Long, Long, Double)], Double) = {
    val (edges, s) = r.span("txgraph.edges")(edgeList(txs))
    r.count("txgraph.edge_rows", edges.length)
    (edges, s)
  }

  private def edgeList(txs: DataFrame): Array[(Long, Long, Double)] =
    TxGraph.edges(txs).collect().map(row => (row.getLong(0), row.getLong(1), row.getDouble(2)))

  /** Input identity: the graph's total weight equals its transaction count,
    * and the workload's input is printed so a generator change shows.
    */
  private def checkInput(r: Run, what: String, g: Graph, edgeRows: Int, nTx: Long): Unit = {
    r.check(Checks.totalWeight(g, nTx))
    r.printOnce(what, s"perfbench: input $what: $nTx txs, ${g.n} accounts, $edgeRows edge rows, " +
      s"total weight ${g.totalWeight}")
  }

  private def buildGraph(r: Run, edges: Array[(Long, Long, Double)]): (Graph, Double) = {
    val (g, s) = r.span("graph.from_edges")(Graph.fromEdges(edges))
    r.count("graph.nodes", g.n)
    r.count("graph.arcs", g.nbr.length)
    r.count("graph.bytes", 8.0 * g.ids.length + 4.0 * g.offsets.length + 4.0 * g.nbr.length +
      8.0 * g.wgt.length + 8.0 * g.self.length + 8.0 * g.strength.length)
    (g, s)
  }

  /** G-TxAllo; traced runs first time Louvain on its own, since `GTxAllo.run`
    * calls it internally where no span can reach.
    */
  private def gTxAllo(r: Run, g: Graph, k: Int): (AllocResult, Double) = {
    val louvainSeconds =
      if (!r.tracer.on) 0.0
      else {
        val (labels, s) = r.span("louvain.cluster")(Louvain.cluster(g))
        r.count("louvain.communities", if (labels.isEmpty) 0 else labels.max + 1)
        s
      }
    val params = TxAlloParams.default(g, k, Eta)
    val (res, s) = r.span("gtxallo.run")(GTxAllo.run(g, params))
    r.count("gtxallo.sweeps", res.sweeps)
    r.count("gtxallo.cap_hit", if (res.sweeps >= params.maxSweeps) 1 else 0)
    if (r.tracer.on) {
      r.count("gtxallo.after_louvain_s", s - louvainSeconds)
      r.count("gtxallo.ms_per_sweep", 1000 * (s - louvainSeconds) / math.max(res.sweeps, 1))
    }
    (res, s)
  }

  /** `Alloc.toDf` + `Metrics.evaluate`, checked against the driver reference
    * over ledger transactions [from, until).
    */
  private def evaluate(r: Run, txAcc: DataFrame, from: Int, until: Int, m: Mapping,
                       k: Int): (MetricsResult, Double) = {
    val (df, toDfSeconds) = r.span("alloc.to_df")(Alloc.toDf(r.spark, m.toMap))
    val (res, evalSeconds) = r.span("metrics.evaluate")(Metrics.evaluate(txAcc, df, k, Eta))
    r.check(Checks.evaluator(r.ledger, from, until, m, k, Eta, res))
    r.count("metrics.gamma", res.gamma)
    r.count("metrics.rho_norm", res.rho / res.lambda)
    r.count("metrics.worst_latency", res.worstLatency)
    (res, toDfSeconds + evalSeconds)
  }

  /** Full-history allocation at k = 60 (paper T5 cell). One rep is the
    * G-TxAllo pipeline from the ledger (edges + collect, `Graph.fromEdges`,
    * `GTxAllo.run`) and then `Alloc.toDf` + `Metrics.evaluate` of its
    * mapping over the whole ledger. The baselines run on the same ledger in
    * the first warm-up rep and once more after the measured reps: hash,
    * METIS on the rep's CSR, and Shard Scheduler on the chronological tx
    * stream built in set-up. They are per-layer spans only, so their cost
    * does not take samples away from the end-to-end metrics.
    */
  def global(r: Run, warmup: Int, minReps: Int): Unit = {
    val k = 60
    val accounts = r.ledger.allAccounts
    val txAcc = TxGen.txAccounts(r.txs).cache()
    txAcc.count()
    val accountsDf = TxGen.accounts(r.txs).cache()
    accountsDf.count()
    val txSeq = (0 until r.ledger.nTx).map(i => (i.toLong, r.ledger.accounts(i))).toArray

    def checked(name: String, m: Mapping): Unit = {
      r.check(Checks.valid(m, accounts, k))
      r.check(r.sameAsBefore(name, m))
    }

    def allocate(): (Graph, Mapping) = {
      val (edges, edgesSeconds) = collectEdges(r, r.txs)
      val (g, graphSeconds) = buildGraph(r, edges)
      checkInput(r, "ledger", g, edges.length, r.nTx)
      val (res, allocSeconds) = gTxAllo(r, g, k)
      if (r.measuring) r.allocSeconds += edgesSeconds + graphSeconds + allocSeconds
      val m = Mapping(g.ids, res.assign)
      checked("G-TxAllo", m)
      (g, m)
    }

    def evaluateFull(m: Mapping): Unit = {
      val (mr, evalSeconds) = evaluate(r, txAcc, 0, r.ledger.nTx, m, k)
      if (r.measuring) {
        r.evalSeconds += evalSeconds
        r.normThroughput += mr.normThroughput
      }
    }

    def baselines(g: Graph): Unit = {
      val (hashDf, _) = r.span("hash.allocate") {
        val df = HashAllocator.allocate(accountsDf, k).cache()
        df.count()
        df
      }
      val (part, _) = r.span("metis.partition")(Metis.partition(g, k))
      r.count("metis.cut_ratio", GraphMetrics.cutRatio(g, part))
      val (sched, _) = r.span("scheduler.allocate")(ShardScheduler.allocate(txSeq.iterator, k, Eta)._1)
      checked("Hash", Mapping.fromDf(hashDf))
      checked("METIS", Mapping(g.ids, part))
      checked("Scheduler", Mapping.fromMap(sched))
      hashDf.unpersist()
    }

    var last: Graph = null
    (0 until warmup).foreach { _ =>
      r.op("global warm-up rep") {
        val (g, m) = allocate()
        evaluateFull(m)
        if (last == null) baselines(g)
        last = g
      }
    }
    r.startMeasuring()
    r.forSeconds(minReps) {
      r.op("global rep") {
        val (g, m) = allocate()
        evaluateFull(m)
        last = g
      }
      true
    }
    r.recordHeap()
    r.op("global baselines")(baselines(last))
    txAcc.unpersist()
    accountsDf.unpersist()
  }

  /** A-TxAllo stream at k = 20 (paper T9/T10): G-TxAllo bootstraps on the
    * first 90% of blocks, then the rest arrives in steps of `stepBlocks`
    * blocks. The first `warmup` steps are set-up; at least `minSteps` are
    * measured (with the stream of 8 steps, 3 + 5 measure all of it), and Λ/λ
    * is the mean over exactly those, so it does not depend on how many steps
    * fit in the measured seconds.
    */
  def adaptive(r: Run, warmup: Int, minSteps: Int, stepBlocks: Long): Unit = {
    val k = 20
    val nBlocks = r.params.nBlocks
    val trainBlocks = (nBlocks * 0.9).toLong
    def blocks(lo: Long, hi: Long) = r.txs.where(col("block") >= lo && col("block") < hi)

    var graph: Graph = null
    var assign: Map[Long, Int] = null
    var history = r.ledger.distinctAccounts(0, r.ledger.firstTxOf(trainBlocks))
    r.op("adaptive bootstrap") {
      val (edges, _) = collectEdges(r, blocks(0, trainBlocks))
      graph = buildGraph(r, edges)._1
      checkInput(r, "first 90% of blocks", graph, edges.length, r.ledger.firstTxOf(trainBlocks))
      val (res, _) = gTxAllo(r, graph, k)
      val m = Mapping(graph.ids, res.assign)
      r.check(Checks.valid(m, history, k))
      r.check(r.sameAsBefore("G-TxAllo bootstrap", m))
      assign = m.toMap
    }

    var lo = trainBlocks
    var last: Mapping = null
    def step(): Boolean = {
      val hi = math.min(lo + stepBlocks, nBlocks)
      val (from, until) = (r.ledger.firstTxOf(lo), r.ledger.firstTxOf(hi))
      val stepTxs = blocks(lo, hi)
      r.op(s"adaptive step [$lo, $hi)") {
        val (edges, edgesSeconds) = collectEdges(r, stepTxs)
        val (active, activeSeconds) = r.span("txgraph.active") {
          TxGen.txAccounts(stepTxs).select("account").distinct().collect().map(_.getLong(0)).toSet
        }
        val (merged, mergeSeconds) = r.span("graph.merge")(Graph.merge(graph, edges))
        val p = TxAlloParams.default(merged, k, Eta)
        val (res, allocSeconds) = r.span("atxallo.run")(ATxAllo.run(merged, assign, active, p))
        r.count("atxallo.sweeps", res.sweeps)
        r.count("atxallo.active", active.size)
        r.count("atxallo.new_accounts", merged.n - graph.n)
        graph = merged
        history = (history ++ r.ledger.distinctAccounts(from, until)).distinct.sorted
        r.check(Checks.totalWeight(merged, until))
        val m = Mapping(merged.ids, res.assign)
        r.check(Checks.valid(m, history, k))
        last = m
        val (mr, evalSeconds) = evaluate(r, TxGen.txAccounts(stepTxs), from, until, m, k)
        assign = m.toMap
        if (r.measuring) {
          r.allocSeconds += edgesSeconds + activeSeconds + mergeSeconds + allocSeconds
          r.evalSeconds += evalSeconds
          if (r.normThroughput.length < minSteps) r.normThroughput += mr.normThroughput
        }
      }
      lo = hi
      lo < nBlocks
    }

    (0 until warmup).foreach(_ => step())
    r.startMeasuring()
    r.forSeconds(minSteps)(step())
    r.recordHeap()
    Console.err.println(f"perfbench: fingerprint A-TxAllo at block $lo = 0x${last.fingerprint}%08x")

    r.op("adaptive incremental equals scratch") {
      r.check(Checks.sameGraph(graph, Graph.fromEdges(edgeList(blocks(0, lo)))))
    }
  }
}
