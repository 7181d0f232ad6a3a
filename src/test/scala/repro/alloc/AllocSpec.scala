package repro.alloc

import org.apache.spark.sql.types.{IntegerType, LongType, StructField, StructType}
import repro.SparkSpec

/** Mapping conversion helpers. */
class AllocSpec extends SparkSpec {

  test("toDf round-trips a mapping") {
    val m = Map(1L -> 0, 2L -> 1, 3L -> 0)
    val back = Alloc.toDf(spark, m).collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
    assert(back == m)
  }

  test("toDf emits accounts in ascending order (deterministic)") {
    val df = Alloc.toDf(spark, Map(5L -> 1, 1L -> 0, 3L -> 2))
    assert(df.collect().map(_.getLong(0)).toSeq == Seq(1L, 3L, 5L))
  }

  test("toDf has non-nullable (account, shard) columns, also for an empty mapping") {
    val schema = StructType(Seq(StructField("account", LongType, nullable = false),
                                StructField("shard", IntegerType, nullable = false)))
    assert(Alloc.toDf(spark, Map(5L -> 1, 1L -> 0)).schema == schema)
    val empty = Alloc.toDf(spark, Map.empty)
    assert(empty.schema == schema && empty.collect().isEmpty)
  }

  test("arrays of a DataFrame sorts rows out of account order and keeps a repeated account twice") {
    import spark.implicits._
    val (ids, shard) = Alloc.arrays(Seq((5L, 1), (1L, 0), (3L, 2), (1L, 4)).toDF("account", "shard"))
    assert(ids.toSeq == Seq(1L, 1L, 3L, 5L) && shard.toSeq == Seq(0, 4, 2, 1))
    val (sortedIds, sortedShard) = Alloc.arrays(Alloc.toDf(spark, Map(5L -> 1, 1L -> 0, 3L -> 2)))
    assert(sortedIds.toSeq == Seq(1L, 3L, 5L) && sortedShard.toSeq == Seq(0, 2, 1))
  }
}
