package repro.alloc

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.chain.LocalFrame

/** Helpers moving account-shard mappings between driver maps, the
  * `(account: Long, shard: Int)` DataFrame shape and the ascending arrays
  * `repro.eval.Metrics` counts with. `Metrics.evaluateIncidence` checks a
  * mapping against Definition 1 as it counts.
  */
object Alloc {

  /** Driver map -> (account, shard) DataFrame, in ascending account order. */
  def toDf(spark: SparkSession, mapping: Map[Long, Int]): DataFrame =
    arrays(mapping) match { case (ids, shard) => LocalFrame(spark, "account" -> ids, "shard" -> shard) }

  /** Driver map -> ascending account ids and their shards. */
  def arrays(mapping: Map[Long, Int]): (Array[Long], Array[Int]) = {
    val ids = mapping.keysIterator.toArray
    java.util.Arrays.sort(ids)
    (ids, ids.map(mapping))
  }

  /** (account, shard) DataFrame -> ascending account ids and their shards,
    * in one read. An account listed twice stays twice in `ids`, so that
    * `Metrics.evaluateIncidence` rejects it.
    */
  def arrays(alloc: DataFrame): (Array[Long], Array[Int]) = {
    val rows = alloc.select("account", "shard").collect().sortBy(_.getLong(0)) // one pass if ascending already
    (rows.map(_.getLong(0)), rows.map(_.getInt(1)))
  }
}
