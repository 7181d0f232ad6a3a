package repro.bench

import repro.SparkSpec
import repro.chain.{ChainParams, Incidence, TxGen}
import repro.harness._

/** Shared benchmark inputs: the full comparison sweep (tables T2-T8) and the
  * adaptive-evolution study (T9-T10) at benchmark scale, both over one
  * generated and collected ledger. Computed once per JVM (bench suites run
  * serially) and reused by every per-table suite.
  *
  * BENCH_SF overrides the scale factor (default 0.1 ~= 600K transactions /
  * ~86K accounts, the DESIGN.md benchmark scale).
  */
object BenchData {

  val sf: Double = sys.env.get("BENCH_SF").map(_.toDouble).getOrElse(0.1)

  private lazy val ledger: Incidence =
    TxGen.collectByTxId(TxGen.transactions(SparkSpec.shared, ChainParams.atScale(sf)))

  lazy val sweep: SweepResult = {
    val res = Sweep.run(ledger)
    Console.err.println(s"[BenchData] sweep done: ${res.rows.size} rows, nTx=${res.nTx}")
    res
  }

  lazy val evolution: EvolutionResult = {
    val res = Evolution.run(ledger)
    Console.err.println(s"[BenchData] evolution done: ${res.runs.size} strategies")
    res
  }

  def row(method: String, k: Int, eta: Double): SweepRow =
    sweep.rows.find(r => r.method == method && r.k == k && r.eta == eta)
      .getOrElse(sys.error(s"missing sweep row ($method, $k, $eta)"))
}
