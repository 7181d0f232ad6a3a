package repro.chain

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.chain.ChainParams._
import scala.util.hashing.MurmurHash3

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

  test("the ledger is one partition per core and its rows are pinned") {
    val ledger = TxGen.transactions(spark, ChainParams.atScale(0.002, seed = 4))
    assert(ledger.rdd.getNumPartitions == math.min(32, spark.sparkContext.defaultParallelism))
    // Recorded from the Catalyst generator (now TxGenReference) over the
    // uncoalesced 32-partition range: coalescing moves no draw out of its
    // range slice.
    val flat = ledger.orderBy("txId").collect().flatMap { r =>
      val acc = r.getSeq[Long](2)
      Seq(r.getLong(0), r.getLong(1), acc.length.toLong) ++ acc
    }
    assert(f"0x${MurmurHash3.arrayHash(flat)}%08x" == "0x24ebebee")
  }

  test("the ledger equals the Catalyst reference row for row and in schema") {
    for (cp <- Seq(ChainParams.atScale(0.02), ChainParams.atScale(0.02, seed = 7), ChainParams.atScale(0.003),
                   ChainParams.atScale(0.002, seed = 1), p, ChainParams(nTx = 5, nAccounts = 256, nCommunities = 64),
                   ChainParams(nTx = 5000, nAccounts = 1000, nCommunities = 64, seed = Long.MaxValue - 20))) {
      val (ours, ref) = (TxGen.transactions(spark, cp), TxGenReference.transactions(spark, cp))
      assert(ours.schema == ref.schema, cp)
      val Seq(a, b) = Seq(ours, ref).map(_.collect().map(r => (r.getLong(0), r.getLong(1), r.getSeq[Long](2))))
      assert(a.length == cp.nTx && b.length == cp.nTx, cp)
      a.indices.find(t => a(t) != b(t)).foreach(t => fail(s"$cp: row $t is ${a(t)}, the reference's ${b(t)}"))
    }
  }

  test("the draws equal Spark's rand row for row, also where seed + j + i wraps") {
    val n = 1000L
    for (s <- Seq(0L, -1L, 42L, Long.MaxValue - 40)) {
      val sparks = spark.range(0, n, 1, 32).select((0 until TxGen.Draws).map(j => rand(s + j)): _*).collect()
      val ours = (0 until 32).flatMap { i =>
        val (from, until) = TxGen.slice(n, i)
        val gen = TxGen.generators(s, i)
        (from until until).map(_ => gen.map(_.nextDouble()).toSeq)
      }
      assert(ours.length == n)
      ours.indices.foreach(t => assert(ours(t) == sparks(t).toSeq, s"seed $s, txId $t"))
    }
  }

  test("collectByTxId is the ledger's rows in txId order and rejects rows out of that order") {
    val in = TxGen.collectByTxId(txs)
    val rows = txs.orderBy("txId").collect()
    assert(in.txId.toSeq == rows.map(_.getLong(0)).toSeq)
    assert(in.block.toSeq == rows.map(_.getLong(1)).toSeq)
    assert(in.txId.indices.forall(t => in.accounts.slice(in.offsets(t), in.offsets(t + 1)).toSeq == rows(t).getSeq[Long](2)))
    val e = intercept[IllegalArgumentException](TxGen.collectByTxId(txs.orderBy(desc("txId"))))
    assert(e.getMessage.contains(s"txId ${p.nTx - 2} follows ${p.nTx - 1}"))
  }

  test("the packed read rejects a null account set, a null account and txIds out of order, naming the row") {
    import spark.implicits._
    def ledger(rows: (Long, Seq[Option[Long]])*) = rows.map { case (id, a) => (id, 0L, a) }.toDF("txId", "block", "accounts")
    val ok = Seq(Some(1L), Some(2L))
    val nullSet = ledger(0L -> ok, 1L -> null)
    val nullAccount = ledger(0L -> ok, 1L -> Seq(Some(3L), None))
    for ((read, msg) <- Seq(
           (() => TxGen.collectByTxId(nullSet), "txId 1: null or empty account set"),
           (() => repro.core.TxGraph.fromTxs(nullSet), "txId 1: null or empty account set"),
           (() => TxGen.collectByTxId(nullAccount), "txId 1: null account"),
           (() => repro.core.TxGraph.fromTxs(nullAccount), "txId 1: null account"),
           (() => TxGen.collectByTxId(ledger(0L -> ok, 2L -> ok, 1L -> ok)), "txId 1 follows 2"))) {
      val e = intercept[IllegalArgumentException](read())
      assert(e.getMessage.contains(msg), e.getMessage)
    }
  }

  test("the packed read rejects a txId or block that is not bigint and accounts that are not array<bigint>, naming the column") {
    import spark.implicits._
    val ok = Seq((0L, 0L, Seq(1L, 2L))).toDF("txId", "block", "accounts")
    for ((df, msg) <- Seq(
           (ok.withColumn("txId", col("txId").cast("int")), "txId is int, not bigint"),
           (ok.withColumn("block", col("block").cast("int")), "block is int, not bigint"),
           (ok.withColumn("accounts", col("accounts").cast("array<int>")), "accounts is array<int>, not array<bigint>"),
           (ok.withColumn("accounts", col("accounts")(0)), "accounts is bigint, not array<bigint>"))) {
      val e = intercept[IllegalArgumentException](Incidence.collect(df))
      assert(e.getMessage.contains(msg), e.getMessage)
    }
    assert(Incidence.collect(ok).accounts.toSeq == Seq(1L, 2L))
  }

  test("firstTxOf is the first row at or after a block") {
    val in = TxGen.collectByTxId(txs)
    for (b <- -1L to in.block.last + 2)
      assert(in.firstTxOf(b) == (in.block.indexWhere(_ >= b) match { case -1 => in.nTx; case t => t }), s"block $b")
    assert(Incidence(Array.emptyLongArray, Array.emptyLongArray, Array(0), Array.emptyLongArray).firstTxOf(3) == 0)
  }

  test("scale factor helper respects the paper's tx:account ratio") {
    val cp = ChainParams.atScale(0.01)
    assert(cp.nTx == 60000)
    assert(cp.nAccounts == cp.nTx / 7)
    assert(cp.nCommunities >= 64)
  }

  test("atScale rejects a scale factor that is not finite and positive, naming it") {
    for (sf <- Seq(0.0, -0.0, -1.0, Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val e = intercept[IllegalArgumentException](ChainParams.atScale(sf))
      assert(e.getMessage.contains(s"got $sf"), e.getMessage)
    }
    assert(ChainParams.atScale(Double.MinPositiveValue).nTx == 1000)
  }

  test("parameter validation") {
    assertThrows[IllegalArgumentException](ChainParams(0, 10, 1))
    assertThrows[IllegalArgumentException](ChainParams(10, 10, 8)) // <4 accounts/comm
  }
}
