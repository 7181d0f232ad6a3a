package repro.alloc

import org.scalatest.funsuite.AnyFunSuite

/** Shard Scheduler baseline: coverage, determinism, balance behaviour. */
class ShardSchedulerSpec extends AnyFunSuite {

  private def txStream(seed: Int, n: Int, nAcc: Int, hubEvery: Int = 9): Seq[(Long, Array[Long])] = {
    val rnd = new scala.util.Random(seed)
    (0 until n).map { i =>
      val accs =
        if (hubEvery > 0 && i % hubEvery == 0) Array(0L, (1 + rnd.nextInt(nAcc)).toLong)
        else Array((1 + rnd.nextInt(nAcc)).toLong, (1 + rnd.nextInt(nAcc)).toLong)
      (i.toLong, accs)
    }
  }

  test("every seen account is allocated to a shard in [0, k)") {
    val txs = txStream(1, 500, 100)
    val (map, _) = ShardScheduler.allocate(txs.iterator, k = 4, eta = 2.0)
    val seen = txs.flatMap(_._2).toSet
    assert(map.keySet == seen)
    map.values.foreach(s => assert(s >= 0 && s < 4))
  }

  for (seed <- 1 to 5) {
    test(s"deterministic (seed=$seed)") {
      val txs = txStream(seed, 300, 80)
      val a = ShardScheduler.allocate(txs.iterator, 5, 2.0)._1
      val b = ShardScheduler.allocate(txs.iterator, 5, 2.0)._1
      assert(a == b)
    }
  }

  test("empty stream yields an empty mapping") {
    val (map, _) = ShardScheduler.allocate(Iterator.empty, 4, 2.0)
    assert(map.isEmpty)
  }

  test("k = 1 puts everything in shard 0") {
    val txs = txStream(2, 200, 50)
    val (map, _) = ShardScheduler.allocate(txs.iterator, 1, 2.0)
    assert(map.values.forall(_ == 0))
  }

  test("multi-account transactions are handled") {
    val txs = Seq(
      (0L, Array(1L, 2L, 3L)),
      (1L, Array(2L, 3L, 4L, 5L)),
      (2L, Array(9L)))
    val (map, _) = ShardScheduler.allocate(txs.iterator, 3, 2.0)
    assert(map.keySet == Set(1L, 2L, 3L, 4L, 5L, 9L))
  }

  test("co-locates a stable counterparty pair") {
    // Account 7 and 8 transact together repeatedly: the scheduler should put
    // them in one shard (unless buffer pressure diverts, absent here).
    val txs = (0 until 20).map(i => (i.toLong, Array(7L, 8L)))
    val (map, _) = ShardScheduler.allocate(txs.iterator, 4, 2.0)
    assert(map(7L) == map(8L))
  }

  test("keeps the workload balanced under a hub account (the paper's Fig 4c)") {
    val k = 8
    val txs = txStream(3, 4000, 300, hubEvery = 4) // 25% hub transactions
    val (map, _) = ShardScheduler.allocate(txs.iterator, k, eta = 2.0)
    // Recompute the final workload distribution under the final mapping.
    val loads = new Array[Double](k)
    txs.foreach { case (_, accs) =>
      val shards = accs.map(map).distinct
      val w = if (shards.length == 1) 1.0 else 2.0
      shards.foreach(loads(_) += w)
    }
    val mean = loads.sum / k
    assert(loads.max <= 2.0 * mean, s"scheduler left an overloaded shard: ${loads.toSeq}")
    assert(loads.min >= 0.3 * mean, s"scheduler starved a shard: ${loads.toSeq}")
  }

  test("running time is reported") {
    val txs = txStream(4, 100, 30)
    val (_, ns) = ShardScheduler.allocate(txs.iterator, 4, 2.0)
    assert(ns >= 0)
  }
}
