package repro.harness

import scala.collection.immutable.ListMap

/** The catalogue of reproduced tables (paper Figs. 2-10): table id ->
  * plain-text renderer. The bench suites and `repro.jobs.Figures` both print
  * through it, so each table's title and metric are defined here only.
  */
object Tables {

  /** T2-T8, all rendered from one comparison sweep. */
  val sweepTables: ListMap[String, SweepResult => String] = ListMap(
    ("T2", sweepTable("T2 cross-shard transaction ratio gamma", _, _.gamma)),
    ("T3", sweepTable("T3 workload balance rho / lambda", _, _.rhoNorm)),
    ("T4", caseStudyTable),
    ("T5", sweepTable("T5 normalized throughput Lambda/lambda", _, _.normThroughput)),
    ("T6", sweepTable("T6 average confirmation latency zeta [blocks]", _, _.avgLatency)),
    ("T7", sweepTable("T7 worst-case latency [blocks]", _, _.worstLatency)),
    ("T8", sweepTable("T8 allocation running time [s]", _, _.allocNanos / 1e9, decimals = 6)))

  /** T9-T10, both rendered from one evolution study. */
  val evolutionTables: ListMap[String, EvolutionResult => String] = ListMap(
    ("T9", evolutionTable),
    ("T10", adaptiveTimeTable))

  /** Every table id, in paper order. */
  val ids: Seq[String] = (sweepTables.keys ++ evolutionTables.keys).toSeq

  /** Pivot a sweep metric into one block per eta: rows = k, cols = methods. */
  private def sweepTable(title: String, res: SweepResult, value: SweepRow => Double, decimals: Int = 4): String = {
    val sb = new StringBuilder
    sb ++= s"== $title (nTx=${res.nTx}, nAccounts=${res.nAccounts}) ==\n"
    for (eta <- res.cfg.etas) {
      sb ++= s"-- eta = $eta --\n"
      sb ++= f"${"k"}%4s" + Sweep.Methods.map(m => f"$m%11s").mkString + "\n"
      for (k <- res.cfg.ks) {
        sb ++= f"$k%4d"
        for (m <- Sweep.Methods) {
          val row = res.rows.find(r => r.method == m && r.k == k && r.eta == eta)
          sb ++= row.map(r => s"%10.${decimals}f".format(value(r))).getOrElse("         -")
        }
        sb ++= "\n"
      }
    }
    sb.result()
  }

  /** T4: per-shard normalized workload (sigma_i / lambda) case study. */
  private def caseStudyTable(res: SweepResult): String = {
    val k = res.cfg.caseStudyK
    val eta = Sweep.CaseStudyEta
    val sb = new StringBuilder
    sb ++= s"== T4 per-shard normalized workload sigma_i/lambda (k=$k, eta=$eta) ==\n"
    for (m <- Sweep.Methods) {
      res.rows.find(r => r.method == m && r.k == k && r.eta == eta).foreach { r =>
        val norm = r.metrics.shards.map(_.sigma / r.metrics.lambda)
        sb ++= f"$m%10s: " + norm.map(x => f"$x%6.2f").mkString(" ") + "\n"
        sb ++= f"${""}%10s  max=${norm.max}%.2f  min=${norm.min}%.2f  over-capacity-shards=${norm.count(_ > 1.0)}%d\n"
      }
    }
    sb.result()
  }

  /** T9: throughput evolution per strategy + per-strategy averages. */
  private def evolutionTable(res: EvolutionResult): String = {
    val sb = new StringBuilder
    sb ++= s"== T9 throughput evolution (k=${res.cfg.k}, eta=${res.cfg.eta}, " +
      s"steps=${res.cfg.nSteps}, nTx=${res.nTx}) ==\n"
    sb ++= f"${"step"}%6s" + res.runs.map(r => f"${r.name}%12s").mkString + "\n"
    for (t <- 0 until res.cfg.nSteps) {
      sb ++= f"$t%6d"
      for (r <- res.runs) sb ++= f"${r.steps(t).normThroughput}%12.4f"
      sb ++= "\n"
    }
    sb ++= f"${"avg"}%6s" + res.runs.map(r => f"${r.avgThroughput}%12.4f").mkString + "\n"
    sb.result()
  }

  /** T10: per-step allocation update time, pure-G vs hybrid/adaptive. */
  private def adaptiveTimeTable(res: EvolutionResult): String = {
    val sb = new StringBuilder
    sb ++= s"== T10 per-step update time [ms] (bootstrap G-TxAllo: ${res.bootstrapMillis} ms) ==\n"
    sb ++= f"${"step"}%6s" + res.runs.map(r => f"${r.name}%14s").mkString + "\n"
    for (t <- 0 until res.cfg.nSteps) {
      sb ++= f"$t%6d"
      for (r <- res.runs) {
        val s = r.steps(t)
        val tag = if (s.usedGlobal) "G" else "A"
        sb ++= f"${s.updateMillis}%11d($tag)"
      }
      sb ++= "\n"
    }
    sb ++= f"${"avg"}%6s" + res.runs.map(r => f"${r.avgUpdateMillis}%14.1f").mkString + "\n"
    sb.result()
  }
}
