package repro.alloc

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
}
