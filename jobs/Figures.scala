package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.chain.{ChainParams, TxGen}
import repro.harness.{Evolution, Sweep, Tables}

/** spark-submit entry point for the reproduced tables T2-T10 (paper Figs.
  * 2-10):
  *
  *   Figures [sf] [T2 ... T10]
  *
  * `sf` is the ledger scale factor (default 0.1, the benchmark scale). The ids
  * pick the tables, printed in the order given; none means all. Spark
  * generates the ledger and collects it once; one comparison sweep over it
  * feeds every requested table of T2-T8 and one evolution study T9-T10.
  * `SPARK_MASTER` sets the deployment.
  */
object Figures {

  def main(args: Array[String]): Unit = {
    val (sf, ids) = parse(args)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("Figures")
      .getOrCreate()
    val ledger = TxGen.collectByTxId(TxGen.transactions(spark, ChainParams.atScale(sf)))
    lazy val sweep = Sweep.run(ledger)
    lazy val evolution = Evolution.run(ledger)
    for (id <- ids)
      println(Tables.sweepTables.get(id).map(_(sweep)).getOrElse(Tables.evolutionTables(id)(evolution)))
  }

  /** The scale factor and the table ids. An unknown id, and a scale factor
    * that is not finite and positive, are rejected here, before any Spark
    * work.
    */
  def parse(args: Array[String]): (Double, Seq[String]) = {
    val sf = args.headOption.flatMap(_.toDoubleOption)
    val ids = args.toSeq.drop(sf.size)
    val unknown = ids.filterNot(Tables.ids.contains)
    require(unknown.isEmpty, s"unknown table id ${unknown.mkString(", ")}; valid ids: ${Tables.ids.mkString(" ")}")
    sf.foreach(ChainParams.atScale(_))
    (sf.getOrElse(0.1), if (ids.isEmpty) Tables.ids else ids)
  }
}
