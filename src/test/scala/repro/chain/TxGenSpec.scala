package repro.chain

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.chain.ChainParams._

/** Synthetic ledger generator: determinism, schema, and the structural
  * properties the paper's evaluation depends on (DESIGN.md substitution #1).
  */
class TxGenSpec extends SparkSpec {

  private val p = ChainParams(nTx = 30000, nAccounts = 4200, nCommunities = 60, seed = 4)
  private lazy val txs = TxGen.transactions(spark, p).cache()

  test("emits exactly nTx rows with sequential txIds") {
    assert(txs.count() == p.nTx)
    val ids = txs.agg(min("txId"), max("txId"), countDistinct("txId")).collect()(0)
    assert(ids.getLong(0) == 0L && ids.getLong(1) == p.nTx - 1 && ids.getLong(2) == p.nTx)
  }

  test("block = txId / txPerBlock") {
    val bad = txs.where(col("block") =!= (col("txId") / TxPerBlock).cast("long")).count()
    assert(bad == 0)
    val nBlocks = txs.select(countDistinct("block")).collect()(0).getLong(0)
    assert(nBlocks == p.nBlocks)
  }

  test("accounts arrays are non-empty, sorted, distinct and within range") {
    val rows = txs.select("accounts").collect().map(_.getSeq[Long](0))
    rows.foreach { acc =>
      assert(acc.nonEmpty && acc.size <= 4)
      assert(acc == acc.sorted)
      assert(acc.distinct.size == acc.size)
      acc.foreach(a => assert(a >= 0 && a < p.nAccounts, s"account $a out of range"))
    }
  }

  test("deterministic in (params, seed)") {
    val again = TxGen.transactions(spark, p)
    assert(txs.exceptAll(again).count() == 0)
    assert(again.exceptAll(txs).count() == 0)
  }

  test("different seeds give different ledgers") {
    val other = TxGen.transactions(spark, p.copy(seed = 99))
    assert(txs.exceptAll(other).count() > 0)
  }

  test("hub account 0 appears in ~hubShare of transactions") {
    val hubTx = txs.where(array_contains(col("accounts"), 0L)).count()
    val share = hubTx.toDouble / p.nTx
    assert(share > HubShare - 0.02 && share < HubShare + 0.02, s"hub share $share")
  }

  test("hub account only appears through the hub branch (rank 0 reserved)") {
    // Non-hub draws start at local rank 1, so every community's 0-th account
    // id (c * commSize) never appears except the hub itself.
    val reserved = (1 until p.nCommunities).map(c => c * p.commSize)
    val hit = txs
      .select(explode(col("accounts")) as "a")
      .where(col("a").isin(reserved: _*))
      .count()
    assert(hit == 0)
  }

  test("self-loop transaction share is close to selfShare") {
    val selfTx = txs.where(size(col("accounts")) === 1).count()
    val share = selfTx.toDouble / p.nTx
    assert(share > SelfShare * 0.5 && share < SelfShare * 2.5, s"self share $share")
  }

  test("multi-account transaction share is close to multi3+multi4 shares") {
    val multiTx = txs.where(size(col("accounts")) >= 3).count()
    val share = multiTx.toDouble / p.nTx
    val expected = Multi3Share + Multi4Share
    assert(share > expected * 0.5 && share < expected * 1.5, s"multi share $share")
  }

  test("activity distribution is long-tailed") {
    val freq = txs.select(explode(col("accounts")) as "a")
      .groupBy("a").count().select("count").collect().map(_.getLong(0)).sorted.reverse
    // hub dominates; median account is nearly inactive
    assert(freq.head > p.nTx / 20)
    assert(freq(freq.length / 2) <= 10)
  }

  test("pair transactions are mostly intra-community (planted structure)") {
    val pairs = txs.where(size(col("accounts")) === 2 && !array_contains(col("accounts"), 0L))
      .select(
        (element_at(col("accounts"), 1) / p.commSize).cast("long") as "c1",
        (element_at(col("accounts"), 2) / p.commSize).cast("long") as "c2")
    val total = pairs.count()
    val intra = pairs.where(col("c1") === col("c2")).count()
    val ratio = intra.toDouble / total
    assert(ratio > PIntra - 0.08, s"intra-community ratio $ratio vs pIntra $PIntra")
  }

  test("txAccounts explodes to one row per (tx, account)") {
    val n = TxGen.txAccounts(txs).count()
    val expected = txs.select(sum(size(col("accounts")))).collect()(0).getLong(0)
    assert(n == expected)
  }

  test("accounts() returns the distinct account universe actually used") {
    val accs = TxGen.accounts(txs)
    assert(accs.count() == accs.distinct().count())
    assert(accs.count() > p.nCommunities) // far more than one per community
  }

  test("scale factor helper respects the paper's tx:account ratio") {
    val cp = ChainParams.atScale(0.01)
    assert(cp.nTx == 60000)
    assert(cp.nAccounts == cp.nTx / 7)
    assert(cp.nCommunities >= 64)
  }

  test("parameter validation") {
    assertThrows[IllegalArgumentException](ChainParams(0, 10, 1))
    assertThrows[IllegalArgumentException](ChainParams(10, 10, 8)) // <4 accounts/comm
  }
}
