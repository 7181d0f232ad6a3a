package repro.alloc

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Helpers moving account-shard mappings between driver maps, the
  * `(account: Long, shard: Int)` DataFrame shape and the ascending arrays
  * `repro.eval.Metrics` counts with. `Metrics.evaluateIncidence` checks a
  * mapping against Definition 1 as it counts.
  */
object Alloc {

  /** Driver map -> (account, shard) DataFrame. */
  def toDf(spark: SparkSession, mapping: Map[Long, Int]): DataFrame = {
    import spark.implicits._
    mapping.toSeq.sortBy(_._1).toDF("account", "shard")
  }

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
    val rows = alloc.select("account", "shard").collect().map(r => (r.getLong(0), r.getInt(1))).sortBy(_._1)
    (rows.map(_._1), rows.map(_._2))
  }
}
