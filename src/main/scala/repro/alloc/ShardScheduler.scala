package repro.alloc

import scala.collection.mutable

/** Shard Scheduler (Krol et al., AFT'21) — the transaction-level baseline as
  * used in the paper's comparison (buffer ratio 1, same capacity; see
  * DESIGN.md substitution #3).
  *
  * Transactions are processed strictly chronologically. The scheduler tracks,
  * per shard, the total historical *activity* of its resident accounts — the
  * online proxy of the shard's future workload. For each transaction:
  *   - the *anchor* is the involved account with the highest activity (ties:
  *     lower account id); its shard is the preferred target (co-location cuts
  *     cross-shard transactions);
  *   - if the preferred shard's activity load exceeds the mean (buffer ratio 1),
  *     the globally least-loaded shard is used instead — the load criterion
  *     that gives Shard Scheduler its near-flat workload profile (Fig. 4c);
  *   - new accounts are placed on the target; existing non-anchor accounts
  *     migrate there only while the target stays under the buffered mean.
  *
  * Deterministic given the chronological transaction order.
  */
object ShardScheduler {

  /** @param txs  chronologically ordered (txId, accounts) pairs
    * @param k    number of shards
    * @param eta  cross-shard workload factor (kept for interface parity;
    *             the online criterion is activity-based)
    * @return (mapping account -> shard, wall-clock nanoseconds)
    */
  def allocate(txs: Iterator[(Long, Array[Long])], k: Int, eta: Double): (Map[Long, Int], Long) = {
    require(eta >= 1.0, "eta must be >= 1")
    val t0 = System.nanoTime()
    val shardOf = new mutable.HashMap[Long, Int]
    val activity = new mutable.HashMap[Long, Long]
    val load = new Array[Double](k) // sum of resident accounts' activity
    var totalAct = 0.0

    def leastLoaded: Int = {
      var best = 0; var p = 1
      while (p < k) { if (load(p) < load(best)) best = p; p += 1 }
      best
    }

    def bumpActivity(a: Long): Unit = {
      activity.update(a, activity.getOrElse(a, 0L) + 1L)
      load(shardOf(a)) += 1.0
      totalAct += 1.0
    }

    txs.foreach { case (_, accountsRaw) =>
      val accounts = accountsRaw.distinct.sorted
      val existing = accounts.filter(shardOf.contains)

      // Already fully intra-shard: nothing to decide, no migrations.
      if (existing.length == accounts.length &&
          existing.iterator.map(shardOf).toSet.size == 1) {
        accounts.foreach(bumpActivity)
      } else {

      val preferred =
        if (existing.isEmpty) leastLoaded
        else shardOf(existing.maxBy(a => (activity.getOrElse(a, 0L), -a)))
      val cap = math.max(totalAct / k, 1.0) // buffer ratio 1
      val target = if (load(preferred) > cap) leastLoaded else preferred

      accounts.foreach { a =>
        shardOf.get(a) match {
          case None =>
            shardOf.update(a, target)
          case Some(s) if s != target =>
            val act = activity.getOrElse(a, 0L).toDouble
            if (load(target) + act <= cap) { // migrate under buffer room only
              load(s) -= act
              load(target) += act
              shardOf.update(a, target)
            }
          case _ => ()
        }
        // The transaction itself adds one unit of activity to the account.
        bumpActivity(a)
      }
      }
    }
    ((shardOf.toMap, System.nanoTime() - t0))
  }
}
