package repro.eval

import org.apache.spark.sql.functions.{col, rand}
import repro.{Oracle, SparkSpec}
import repro.alloc.{Alloc, HashAllocator}
import repro.chain.{ChainParams, TxGen}

/** Blockchain-level metrics (Eqs. 1-4) with hand-computed cases, DuckDB
  * oracle checks of `Metrics.evaluate`'s gamma and per-shard counts, and the
  * equivalence of the DataFrame path and the harnesses' driver core.
  */
class MetricsSpec extends SparkSpec {
  import spark.implicits._

  // Hand case: 4 txs, 6 accounts, 2 shards. alloc: 1,2,3 -> 0; 4,5,6 -> 1.
  //   tx0 (1,2)   intra shard 0
  //   tx1 (4,5)   intra shard 1
  //   tx2 (2,4)   cross (mu=2)
  //   tx3 (1,2,5) cross (mu=2)
  private def handTxAcc = Seq(
    (0L, 1L), (0L, 2L),
    (1L, 4L), (1L, 5L),
    (2L, 2L), (2L, 4L),
    (3L, 1L), (3L, 2L), (3L, 5L)).toDF("txId", "account")

  private def handAlloc = Seq(
    (1L, 0), (2L, 0), (3L, 0), (4L, 1), (5L, 1), (6L, 1)).toDF("account", "shard")

  test("hand case: gamma, per-shard loads, sigma (eta = 3)") {
    val m = Metrics.evaluate(handTxAcc, handAlloc, k = 2, eta = 3.0, lambdaOpt = Some(10.0))
    assert(m.nTx == 4)
    assert(math.abs(m.gamma - 0.5) < 1e-12)
    val s0 = m.shards(0); val s1 = m.shards(1)
    assert(s0.txIntra == 1 && s0.txCross == 2)
    assert(s1.txIntra == 1 && s1.txCross == 2)
    assert(math.abs(s0.sigma - (1 + 3 * 2)) < 1e-12)
    assert(math.abs(s1.sigma - (1 + 3 * 2)) < 1e-12)
    assert(math.abs(s0.lamHat - (1 + 0.5 + 0.5)) < 1e-12)
  }

  test("hand case: throughput with sufficient capacity sums to nTx") {
    val m = Metrics.evaluate(handTxAcc, handAlloc, 2, 3.0, Some(100.0))
    assert(math.abs(m.throughput - 4.0) < 1e-12)
  }

  test("hand case: capacity clipping (Eq. 3)") {
    // lambda = 3.5 < sigma = 7 for both shards: each contributes 3.5/7 * 2.
    val m = Metrics.evaluate(handTxAcc, handAlloc, 2, 3.0, Some(3.5))
    assert(math.abs(m.throughput - 2 * (3.5 / 7.0 * 2.0)) < 1e-12)
    assert(m.avgLatency > 1.0)
  }

  test("hand case: rho is zero for symmetric loads and positive otherwise") {
    val m = Metrics.evaluate(handTxAcc, handAlloc, 2, 3.0, Some(10.0))
    assert(m.rho == 0.0)
    val skewed = Seq((1L, 0), (2L, 0), (3L, 0), (4L, 0), (5L, 0), (6L, 1)).toDF("account", "shard")
    val m2 = Metrics.evaluate(handTxAcc, skewed, 2, 3.0, Some(10.0))
    assert(m2.rho > 0.0)
  }

  test("empty shards are included in k for rho and latency") {
    val m = Metrics.evaluate(handTxAcc, handAlloc, k = 5, eta = 2.0, lambdaOpt = Some(10.0))
    assert(m.shards.size == 5)
    assert(m.shards.drop(2).forall(_.sigma == 0.0))
  }

  test("default lambda is nTx / k") {
    val m = Metrics.evaluate(handTxAcc, handAlloc, 2, 2.0)
    assert(math.abs(m.lambda - 2.0) < 1e-12)
  }

  test("perfectly sharded balanced workload reaches normThroughput = k") {
    // k disjoint account pairs, each with the same number of intra txs.
    val k = 4
    val txAcc = (0 until 32).flatMap { i =>
      val shard = i % k
      Seq((i.toLong, (shard * 2).toLong), (i.toLong, (shard * 2 + 1).toLong))
    }.toDF("txId", "account")
    val alloc = (0 until 2 * k).map(a => (a.toLong, a / 2)).toDF("account", "shard")
    val m = Metrics.evaluate(txAcc, alloc, k, 2.0)
    assert(math.abs(m.normThroughput - k) < 1e-9)
    assert(math.abs(m.gamma) < 1e-12)
    assert(m.avgLatency == 1.0)
  }

  test("mu counts distinct shards, not accounts") {
    // 3-account tx with two accounts in the same shard: mu = 2, not 3.
    val txAcc = Seq((0L, 1L), (0L, 2L), (0L, 3L)).toDF("txId", "account")
    val alloc = Seq((1L, 0), (2L, 0), (3L, 1)).toDF("account", "shard")
    val m = Metrics.evaluate(txAcc, alloc, 2, 2.0, Some(10.0))
    assert(m.gamma == 1.0)
    // each shard counts 1/mu = 1/2
    assert(math.abs(m.shards(0).lamHat - 0.5) < 1e-12)
    assert(math.abs(m.shards(1).lamHat - 0.5) < 1e-12)
  }

  private def round6(x: Double): Double =
    BigDecimal(x).setScale(6, BigDecimal.RoundingMode.HALF_UP).toDouble

  test("gamma matches DuckDB (oracle) on a generated ledger") {
    val p = ChainParams.atScale(0.0008, seed = 21)
    val txs = TxGen.transactions(spark, p)
    val txAcc = TxGen.txAccounts(txs)
    val alloc = HashAllocator.allocate(TxGen.accounts(txs), 6)
    val m = Metrics.evaluate(txAcc, alloc, 6, 2.0)
    Oracle.assertEquivalent(
      Seq(round6(m.gamma)).toDF("gamma"),
      """SELECT ROUND(AVG(CASE WHEN s > 1 THEN 1.0 ELSE 0.0 END), 6) AS gamma
        |FROM (SELECT t.txId, COUNT(DISTINCT a.shard) AS s
        |      FROM txacc t JOIN alloc a ON t.account = a.account
        |      GROUP BY t.txId) q""".stripMargin,
      "txacc" -> txAcc, "alloc" -> alloc)
  }

  test("per-shard intra/cross/lamHat match DuckDB (oracle)") {
    val p = ChainParams.atScale(0.0005, seed = 22)
    val txs = TxGen.transactions(spark, p)
    val txAcc = TxGen.txAccounts(txs)
    val alloc = HashAllocator.allocate(TxGen.accounts(txs), 4)
    val m = Metrics.evaluate(txAcc, alloc, 4, 2.0)
    // The SQL GROUP BY has no row for an empty shard.
    val perShard = m.shards.filter(sl => sl.txIntra + sl.txCross > 0)
      .map(sl => (sl.shard, sl.txIntra, sl.txCross, round6(sl.lamHat)))
      .toDF("shard", "txIntra", "txCross", "lamHat")
    Oracle.assertEquivalent(
      perShard,
      """WITH ts AS (SELECT DISTINCT t.txId, a.shard
        |            FROM txacc t JOIN alloc a ON t.account = a.account),
        |     m AS (SELECT txId, COUNT(*) AS mu FROM ts GROUP BY txId)
        |SELECT ts.shard AS shard,
        |       SUM(CASE WHEN m.mu = 1 THEN 1 ELSE 0 END) AS txIntra,
        |       SUM(CASE WHEN m.mu > 1 THEN 1 ELSE 0 END) AS txCross,
        |       ROUND(SUM(1.0 / m.mu), 6) AS lamHat
        |FROM ts JOIN m ON ts.txId = m.txId
        |GROUP BY ts.shard""".stripMargin,
      "txacc" -> txAcc, "alloc" -> alloc)
  }

  test("the result does not depend on Spark partitioning") {
    val p = ChainParams.atScale(0.002, seed = 24)
    val txs = TxGen.transactions(spark, p)
    val txAcc = TxGen.txAccounts(txs)
    val alloc = HashAllocator.allocate(TxGen.accounts(txs), 7)
    val inputs = Seq(txAcc, txAcc.coalesce(1), txAcc.repartition(7), txAcc.repartition(64))
    val results = inputs.map(Metrics.evaluate(_, alloc, 7, 2.0))
    results.tail.foreach(r => assert(r == results.head))
  }

  test("hash allocation at k=60 gives the paper's ~98% cross ratio") {
    val p = ChainParams.atScale(0.003, seed = 23)
    val txs = TxGen.transactions(spark, p)
    val txAcc = TxGen.txAccounts(txs)
    val alloc = HashAllocator.allocate(TxGen.accounts(txs), 60)
    val m = Metrics.evaluate(txAcc, alloc, 60, 2.0)
    assert(m.gamma > 0.93 && m.gamma <= 1.0, s"gamma = ${m.gamma}")
  }

  test("evaluate rejects a shard outside [0, k)") {
    for (bad <- Seq(2, -1)) {
      val alloc = Seq((1L, 0), (2L, 0), (3L, 0), (4L, 1), (5L, bad), (6L, 1)).toDF("account", "shard")
      val e = intercept[IllegalArgumentException](Metrics.evaluate(handTxAcc, alloc, 2, 2.0))
      assert(e.getMessage.contains(s"shard $bad outside [0, 2)"))
    }
  }

  test("evaluate fails loudly when the allocation covers no account") {
    val alloc = Seq((999L, 0)).toDF("account", "shard")
    assertThrows[IllegalArgumentException] {
      Metrics.evaluate(handTxAcc, alloc, 2, 2.0)
    }
  }

  test("evaluate rejects a transaction account the allocation does not map") {
    val alloc = Seq((1L, 0), (2L, 0), (3L, 0), (4L, 1), (6L, 1)).toDF("account", "shard")
    val e = intercept[IllegalArgumentException](Metrics.evaluate(handTxAcc, alloc, 2, 2.0))
    assert(e.getMessage.contains("account 5 "), e.getMessage)
  }

  test("evaluate rejects an account mapped twice") {
    val alloc = handAlloc.union(Seq((4L, 0)).toDF("account", "shard"))
    val e = intercept[IllegalArgumentException](Metrics.evaluate(handTxAcc, alloc, 2, 2.0))
    assert(e.getMessage.contains("account 4 mapped twice"), e.getMessage)
  }

  test("evaluate rejects a null txId or account") {
    val nullAccount = Seq((1L, Some(1L)), (1L, None)).toDF("txId", "account")
    val nullTxId = Seq((Some(1L), 1L), (None, 2L)).toDF("txId", "account")
    for (txAcc <- Seq(nullAccount, nullTxId)) {
      val e = intercept[IllegalArgumentException](Metrics.evaluate(txAcc, handAlloc, 2, 2.0))
      assert(e.getMessage.contains("null"), e.getMessage)
    }
  }

  test("evaluate rejects a txId or account column that is not long") {
    for (c <- Seq("txId", "account")) {
      val txAcc = handTxAcc.withColumn(c, col(c).cast("int"))
      val e = intercept[IllegalArgumentException](Metrics.evaluate(txAcc, handAlloc, 2, 2.0))
      assert(e.getMessage.contains(s"$c is int, not bigint"), e.getMessage)
    }
  }

  private lazy val ledgerTxs = TxGen.transactions(spark, ChainParams.atScale(0.002, seed = 25))
  private lazy val ledgerAlloc = HashAllocator.allocate(TxGen.accounts(ledgerTxs), 7)

  test("the result does not depend on row order, partitioning or duplicated rows") {
    val txAcc = TxGen.txAccounts(ledgerTxs)
    val inputs = Seq(txAcc, txAcc.orderBy(rand(3)), txAcc.repartition(7), txAcc.union(txAcc))
    val results = inputs.map(Metrics.evaluate(_, ledgerAlloc, 7, 2.0))
    results.tail.foreach(r => assert(r == results.head))
  }

  test("the harnesses' driver evaluation of the collected ledger equals the DataFrame path") {
    val ledger = TxGen.collectByTxId(ledgerTxs)
    val (offsets, accounts) = (ledger.offsets, ledger.accounts)
    val (ids, shard) = Alloc.arrays(ledgerAlloc)
    assert(Metrics.evaluateIncidence(offsets, accounts, ids, shard, 7, 2.0) ==
      Metrics.evaluate(TxGen.txAccounts(ledgerTxs), ledgerAlloc, 7, 2.0))
    // A slice of the offsets is a block window, as in Evolution's steps.
    val (from, until) = (ledger.block.indexWhere(_ >= 40), ledger.block.indexWhere(_ >= 44))
    val window = TxGen.txAccounts(ledgerTxs.where(col("block") >= 40 && col("block") < 44))
    assert(Metrics.evaluateIncidence(offsets.slice(from, until + 1), accounts, ids, shard, 7, 2.0) ==
      Metrics.evaluate(window, ledgerAlloc, 7, 2.0))
  }
}
