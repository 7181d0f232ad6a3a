package repro.chain

import org.apache.spark.sql.types.{DoubleType, IntegerType, LongType, StructField, StructType}
import repro.SparkSpec

/** Local DataFrames from driver arrays: both shapes give the same frame. */
class LocalFrameSpec extends SparkSpec {

  test("both shapes give non-nullable columns and the arrays' rows in order") {
    val schema = StructType(Seq(StructField("id", LongType, nullable = false),
      StructField("shard", IntegerType, nullable = false), StructField("w", DoubleType, nullable = false)))
    for (n <- Seq(0, 3, LocalFrame.OneRowFrom - 1, LocalFrame.OneRowFrom, LocalFrame.OneRowFrom + 5)) {
      val (ids, shard, w) = (Array.tabulate(n)(i => (n - i) * 7919L), Array.tabulate(n)(_ % 5), Array.tabulate(n)(_ / 3.0))
      val df = LocalFrame(spark, "id" -> ids, "shard" -> shard, "w" -> w)
      assert(df.schema == schema, s"$n rows")
      val rows = df.collect()
      assert(rows.map(_.getLong(0)).toSeq == ids.toSeq, s"$n rows")
      assert(rows.map(_.getInt(1)).toSeq == shard.toSeq, s"$n rows")
      assert(rows.map(_.getDouble(2)).toSeq == w.toSeq, s"$n rows")
    }
  }
}
