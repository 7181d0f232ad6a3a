package repro.core

import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, LongType, StructField, StructType}
import repro.{Oracle, SparkSpec, TestUtil}
import repro.chain.{ChainParams, TxGen}
import repro.eval.Metrics
import scala.util.hashing.MurmurHash3

/** Transaction-graph construction (Definition 2): pair expansion, 1/pi
  * weights, self-loops, aggregation in exact units of 1/L — plus a DuckDB
  * oracle check.
  */
class TxGraphSpec extends SparkSpec {
  import spark.implicits._

  private def mkTxs(rows: Seq[(Long, Seq[Long])]) =
    rows.map { case (id, acc) => (id, 0L, acc) }.toDF("txId", "block", "accounts")

  private def edgeMap(rows: Seq[(Long, Seq[Long])]): Map[(Long, Long), Double] =
    TxGraph.edges(mkTxs(rows)).collect()
      .map(r => (r.getLong(0), r.getLong(1)) -> r.getDouble(2)).toMap

  test("two-account transaction becomes one edge of weight 1") {
    assert(edgeMap(Seq((0L, Seq(1L, 2L)))) == Map((1L, 2L) -> 1.0))
  }

  test("edge endpoints are canonical: src <= dst regardless of input order") {
    assert(edgeMap(Seq((0L, Seq(5L, 2L)))) == Map((2L, 5L) -> 1.0))
  }

  test("three-account transaction splits into 3 edges of weight 1/3") {
    val m = edgeMap(Seq((0L, Seq(1L, 2L, 3L))))
    assert(m.keySet == Set((1L, 2L), (1L, 3L), (2L, 3L)))
    m.values.foreach(w => assert(math.abs(w - 1.0 / 3) < 1e-12))
  }

  test("four-account transaction splits into 6 edges of weight 1/6") {
    val m = edgeMap(Seq((0L, Seq(1L, 2L, 3L, 4L))))
    assert(m.size == 6)
    m.values.foreach(w => assert(math.abs(w - 1.0 / 6) < 1e-12))
  }

  test("single-account transaction becomes a self-loop of weight 1") {
    assert(edgeMap(Seq((0L, Seq(7L)))) == Map((7L, 7L) -> 1.0))
  }

  test("duplicate accounts inside one transaction are deduplicated") {
    assert(edgeMap(Seq((0L, Seq(1L, 1L, 2L)))) == Map((1L, 2L) -> 1.0))
    assert(edgeMap(Seq((0L, Seq(3L, 3L)))) == Map((3L, 3L) -> 1.0))
  }

  test("weights aggregate across transactions") {
    val m = edgeMap(Seq((0L, Seq(1L, 2L)), (1L, Seq(1L, 2L)), (2L, Seq(1L, 2L, 3L))))
    assert(math.abs(m((1L, 2L)) - (2.0 + 1.0 / 3)) < 1e-12)
    assert(math.abs(m((1L, 3L)) - 1.0 / 3) < 1e-12)
  }

  test("every transaction distributes exactly total weight 1") {
    val rows = Seq((0L, Seq(1L, 2L)), (1L, Seq(3L)), (2L, Seq(4L, 5L, 6L)),
                   (3L, Seq(1L, 4L, 7L, 9L)), (4L, Seq(2L, 2L)))
    val total = edgeMap(rows).values.sum
    assert(math.abs(total - rows.size) < 1e-9)
  }

  test("collect builds a Graph whose totalWeight equals the tx count") {
    val p = ChainParams.atScale(0.002, seed = 11)
    val txs = TxGen.transactions(spark, p)
    val g = TxGraph.fromTxs(txs)
    assert(math.abs(g.totalWeight - p.nTx) < 1e-6 * p.nTx)
  }

  test("graph nodes are exactly the accounts appearing in the ledger") {
    val p = ChainParams.atScale(0.001, seed = 3)
    val txs = TxGen.transactions(spark, p)
    val g = TxGraph.fromTxs(txs)
    val accounts = TxGen.accounts(txs).collect().map(_.getLong(0)).toSet
    assert(g.ids.toSet == accounts)
  }

  test("proper-pair aggregation matches DuckDB (oracle)") {
    val p = ChainParams.atScale(0.0005, seed = 5)
    val txs = TxGen.transactions(spark, p)
    val txAcc = TxGen.txAccounts(txs)
    val sparkEdges = TxGraph.edges(txs)
      .where(col("src") =!= col("dst"))
      .select(col("src"), col("dst"), round(col("weight"), 6) as "weight")
    Oracle.assertEquivalent(
      sparkEdges,
      """SELECT CAST(a.account AS BIGINT) AS src,
        |       CAST(b.account AS BIGINT) AS dst,
        |       ROUND(SUM(2.0 / (c.m * (c.m - 1.0))), 6) AS weight
        |FROM txacc a
        |JOIN txacc b ON a.txId = b.txId
        |            AND CAST(a.account AS BIGINT) < CAST(b.account AS BIGINT)
        |JOIN (SELECT txId, COUNT(*) AS m FROM txacc GROUP BY txId) c ON c.txId = a.txId
        |GROUP BY 1, 2""".stripMargin,
      "txacc" -> txAcc)
  }

  test("self-loop aggregation matches DuckDB (oracle)") {
    val p = ChainParams.atScale(0.0005, seed = 6)
    val txs = TxGen.transactions(spark, p)
    val txAcc = TxGen.txAccounts(txs)
    val sparkSelf = TxGraph.edges(txs)
      .where(col("src") === col("dst"))
      .select(col("src") as "account", round(col("weight"), 6) as "weight")
    Oracle.assertEquivalent(
      sparkSelf,
      """SELECT CAST(account AS BIGINT) AS account, ROUND(COUNT(*) * 1.0, 6) AS weight
        |FROM (SELECT txId, MIN(account) AS account
        |      FROM txacc GROUP BY txId HAVING COUNT(*) = 1) s
        |GROUP BY 1""".stripMargin,
      "txacc" -> txAcc)
  }

  test("edges are deterministic across invocations") {
    val p = ChainParams.atScale(0.0005, seed = 9)
    val a = TxGraph.edges(TxGen.transactions(spark, p)).sort("src", "dst").collect().toSeq
    val b = TxGraph.edges(TxGen.transactions(spark, p)).sort("src", "dst").collect().toSeq
    assert(a == b)
  }

  test("the graph does not depend on Spark partitioning or row order") {
    val txs = TxGen.transactions(spark, ChainParams.atScale(0.002, seed = 8)).cache()
    val g = TxGraph.fromTxs(txs)
    for (n <- Seq(1, 7, 64)) assert(TestUtil.sameGraph(TxGraph.fromTxs(txs.repartition(n)), g), s"$n partitions")
    assert(TestUtil.sameGraph(TxGraph.fromTxs(txs.orderBy(rand(1))), g), "shuffled rows")
    txs.unpersist()
  }

  test("the ledger's graph, G-TxAllo mapping and metrics do not depend on how the ledger is partitioned") {
    val txs = TxGen.transactions(spark, ChainParams.atScale(0.002, seed = 13)).cache()
    val g = TxGraph.fromTxs(txs)
    val res = GTxAllo.run(g, TxAlloParams.default(g, 8, 2.0))
    for ((name, part) <- Seq(("1 partition", txs.coalesce(1)), ("7 partitions", txs.repartition(7)))) {
      val gp = TxGraph.fromTxs(part)
      assert(TestUtil.sameGraph(gp, g), name)
      val rp = GTxAllo.run(gp, TxAlloParams.default(gp, 8, 2.0))
      assert(MurmurHash3.arrayHash(rp.assign) == MurmurHash3.arrayHash(res.assign), name)
    }
    val ledger = TxGen.collectByTxId(txs)
    val shuffled = TxGen.txAccounts(txs).orderBy(rand(5)).repartition(7)
    assert(Metrics.evaluate(shuffled, repro.alloc.Alloc.toDf(spark, res.toMap), 8, 2.0) ==
      Metrics.evaluateIncidence(ledger.offsets, ledger.accounts, res.ids, res.assign, 8, 2.0))
    txs.unpersist()
  }

  test("a pair shared by 2-, 3- and 4-account transactions sums exactly in every row order") {
    // (1, 2) gets 6 + 2 + 1 + 1 units of 1/6; summing 1 + 1/3 + 1/6 + 1/6
    // as Doubles gives a different last bit in some orders.
    val rows = Seq((0L, Seq(1L, 2L)), (1L, Seq(1L, 2L, 3L)), (2L, Seq(1L, 2L, 3L, 4L)),
                   (3L, Seq(1L, 2L, 5L, 6L)))
    val graphs = rows.permutations.map(p => TxGraph.fromTxs(mkTxs(p))).toSeq
    graphs.foreach { g =>
      var w12 = Double.NaN
      g.foreachNbr(g.indexOf(1L))((u, w) => if (g.ids(u) == 2L) w12 = w)
      assert(w12 == 10.0 / 6)
      assert(TestUtil.sameGraph(g, graphs.head))
    }
  }

  test("weight unit L: 6 on a TxGen ledger, rejected when L·|T| exceeds 2^53") {
    val txs = TxGen.transactions(spark, ChainParams.atScale(0.002, seed = 4))
    val sizes = txs.select(size(col("accounts"))).collect().map(_.getInt(0))
    assert(TxGraph.unitsPerTx(sizes.distinct.sorted, sizes.length) == 6)

    // One transaction of each size 2..40: L = 2,671,465,728,531,600, |T| = 39.
    val wide = (2 to 40).map(m => (m.toLong, (1L to m.toLong).toSeq))
    val e = intercept[IllegalArgumentException](TxGraph.fromTxs(mkTxs(wide)))
    Seq("L = 2671465728531600", "|T| = 39", "largest transaction 40").foreach(s => assert(e.getMessage.contains(s)))
  }

  test("a transaction with a null or empty account set is rejected") {
    for (bad <- Seq(Seq.empty[Long], null)) {
      val e = intercept[IllegalArgumentException](TxGraph.fromTxs(mkTxs(Seq((0L, Seq(1L, 2L)), (1L, bad)))))
      assert(e.getMessage.contains("null or empty account set"))
    }
  }

  test("fromIncidence of a ledger slice equals fromTxs of its blocks") {
    val txs = TxGen.transactions(spark, ChainParams.atScale(0.002, seed = 4)).cache()
    val ledger = TxGen.collectByTxId(txs)
    val (from, until) = (ledger.block.indexWhere(_ >= 72), ledger.block.indexWhere(_ >= 76))
    val window = txs.where(col("block") >= 72 && col("block") < 76)
    for ((slice, part) <- Seq((ledger.offsets, txs), (ledger.offsets.slice(from, until + 1), window))) {
      val (a, b) = (TxGraph.fromIncidence(slice, ledger.accounts), TxGraph.fromTxs(part))
      assert(java.util.Arrays.equals(a.ids, b.ids))
      assert(java.util.Arrays.equals(a.offsets, b.offsets))
      assert(java.util.Arrays.equals(a.nbr, b.nbr))
      assert(java.util.Arrays.equals(a.wgt, b.wgt))
      assert(java.util.Arrays.equals(a.self, b.self))
    }
    txs.unpersist()
  }

  test("fromIncidence rejects an empty transaction and unsorted or repeated accounts") {
    for ((offsets, accounts) <- Seq((Array(0, 2, 2), Array(1L, 2L)), (Array(0, 2), Array(2L, 1L)),
                                    (Array(0, 2), Array(3L, 3L)))) {
      intercept[IllegalArgumentException](TxGraph.fromIncidence(offsets, accounts))
    }
  }

  test("the edge rows' endpoints are the accounts of the ledger and of any block window") {
    // Evolution takes a step's V-hat as its step graph's nodes on this invariant.
    val txs = TxGen.transactions(spark, ChainParams.atScale(0.002, seed = 4)).cache()
    for (part <- Seq(txs, txs.where(col("block") >= 72 && col("block") < 76),
                     txs.where(col("block") >= 76 && col("block") < 80))) {
      assert(part.where(size(col("accounts")) === 1).count() > 0, "no self-loop transaction")
      val ends = TxGraph.edges(part).collect().flatMap(r => Seq(r.getLong(0), r.getLong(1))).toSet
      val accounts = TxGen.txAccounts(part).select("account").distinct().collect().map(_.getLong(0)).toSet
      assert(ends == accounts)
    }
    txs.unpersist()
  }

  private val edgeSchema = StructType(Seq(StructField("src", LongType, nullable = false),
    StructField("dst", LongType, nullable = false), StructField("weight", DoubleType, nullable = false)))

  private def sameArrays(a: Graph, b: Graph): Boolean =
    java.util.Arrays.equals(a.ids, b.ids) && java.util.Arrays.equals(a.offsets, b.offsets) &&
      java.util.Arrays.equals(a.nbr, b.nbr) && java.util.Arrays.equals(a.wgt, b.wgt) &&
      java.util.Arrays.equals(a.self, b.self)

  test("edges has a non-nullable (src, dst, weight) schema and the edgeRows of fromTxs, in order") {
    // Below and above the row count where LocalFrame changes shape.
    val counts = for (sf <- Seq(0.002, 0.01)) yield {
      val txs = TxGen.transactions(spark, ChainParams.atScale(sf, seed = 4)).cache()
      val df = TxGraph.edges(txs)
      assert(df.schema == edgeSchema)
      val rows = df.collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))).toSeq
      assert(rows == TxGraph.edgeRows(TxGraph.fromTxs(txs)).toSeq)
      txs.unpersist()
      rows.length
    }
    assert(counts.head < repro.chain.LocalFrame.OneRowFrom && counts.last >= repro.chain.LocalFrame.OneRowFrom, counts)
  }

  test("edges of an empty ledger has no rows and the same schema") {
    val df = TxGraph.edges(mkTxs(Seq.empty))
    assert(df.schema == edgeSchema)
    assert(df.collect().isEmpty)
  }

  test("fromTxs sorts and dedupes account sets as Spark's array_sort(array_distinct) does") {
    val rnd = new scala.util.Random(17)
    val rows = (0L until 300L).map(t => (t, Seq.fill(1 + rnd.nextInt(5))(rnd.nextInt(25).toLong)))
    assert(rows.exists(r => r._2.distinct.length < r._2.length) && rows.exists(r => r._2 != r._2.sorted))
    val ledger = TxGen.transactions(spark, ChainParams.atScale(0.002, seed = 4))
    for (txs <- Seq(mkTxs(rows), ledger.withColumn("accounts", reverse(col("accounts"))))) {
      val sets = txs.orderBy("txId").select(array_sort(array_distinct(col("accounts")))).collect().map(_.getSeq[Long](0))
      val offsets = sets.scanLeft(0)(_ + _.length)
      assert(sameArrays(TxGraph.fromTxs(txs), TxGraph.fromIncidence(offsets, sets.flatten)))
    }
  }

  test("the ledger graph is pinned, and the edge rows rebuild it") {
    val txs = TxGen.transactions(spark, ChainParams.atScale(0.002, seed = 4))
    val g = TxGraph.fromTxs(txs)
    // Exact unit sums fix every bit of these weights, whatever the partitioning.
    val bits = (g.wgt ++ g.self).map(java.lang.Double.doubleToLongBits)
    assert(f"0x${MurmurHash3.arrayHash(bits)}%08x" == "0x10d67971")
    val rows = TxGraph.edges(txs).collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
    assert(TestUtil.sameGraph(Graph.fromEdges(rows), g))
  }
}
