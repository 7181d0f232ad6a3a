package repro.alloc

import org.apache.spark.sql.functions.{col, lit, pmod, xxhash64}
import repro.SparkSpec
import repro.chain.{ChainParams, TxGen}

/** Hash-based allocation baseline. */
class HashAllocatorSpec extends SparkSpec {
  import spark.implicits._

  private def accountsDf(n: Int) = (0L until n.toLong).toDF("account")

  test("every account is mapped to a shard in [0, k)") {
    val df = HashAllocator.allocate(accountsDf(1000), 7).collect()
    assert(df.length == 1000)
    df.foreach(r => assert(r.getInt(1) >= 0 && r.getInt(1) < 7))
  }

  test("deterministic across invocations") {
    val a = HashAllocator.allocate(accountsDf(500), 5).sort("account").collect().toSeq
    val b = HashAllocator.allocate(accountsDf(500), 5).sort("account").collect().toSeq
    assert(a == b)
  }

  test("roughly uniform shard sizes") {
    val counts = HashAllocator.allocate(accountsDf(8000), 16)
      .groupBy("shard").count().collect().map(_.getLong(1))
    assert(counts.length == 16)
    val avg = 8000.0 / 16
    counts.foreach(c => assert(c > avg * 0.7 && c < avg * 1.3, s"skewed: ${counts.toSeq}"))
  }

  test("k = 1 maps everything to shard 0") {
    val df = HashAllocator.allocate(accountsDf(100), 1).collect()
    df.foreach(r => assert(r.getInt(1) == 0))
  }

  for (k <- Seq(2, 4, 8, 32)) {
    test(s"all $k shards are used with enough accounts") {
      val used = HashAllocator.allocate(accountsDf(4000), k)
        .select("shard").distinct().collect().map(_.getInt(0)).toSet
      assert(used == (0 until k).toSet)
    }
  }

  test("shard is Spark's own pmod(xxhash64(account), k), on the driver and in allocate") {
    val ledger = TxGen.accounts(TxGen.transactions(spark, ChainParams.atScale(0.002))).as[Long].collect()
    val near = for (base <- Seq(1L << 40, 1L << 62); d <- -500L to 500L) yield base + d
    assert(ledger.length > 1000)
    val accounts = (ledger ++ near).toSeq.toDF("account")
    for (k <- Seq(1, 2, 7, 60)) {
      val expected = accounts.select(col("account"), pmod(xxhash64(col("account")), lit(k.toLong)).cast("int"))
        .collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
      assert(expected.size == ledger.length + near.size)
      val driver = expected.keysIterator.map(a => a -> HashAllocator.shard(a, k)).toMap
      assert(driver == expected, s"k = $k")
      val df = HashAllocator.allocate(accounts, k).collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
      assert(df == expected, s"k = $k")
    }
  }
}
