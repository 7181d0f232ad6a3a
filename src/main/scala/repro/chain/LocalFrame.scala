package repro.chain

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.{arrays_zip, coalesce, col, inline, lit}
import org.apache.spark.sql.types._

object LocalFrame {
  private[repro] val OneRowFrom = 20000
  /** A local DataFrame of named `Long`, `Int` or `Double` arrays of one length: row i holds element i of each,
    * in array order; no column is nullable. Catalyst's rules map over every row of a local relation, so one row
    * per entry costs planning time per entry. From [[OneRowFrom]] rows on (where `Alloc.toDf` + `arrays` take
    * 33 ms in either shape: BENCH_14.json), Spark gets one row of the arrays, expanded by `inline(arrays_zip)`.
    */
  def apply(spark: SparkSession, columns: (String, Array[_])*): DataFrame = {
    val (names, arrays) = columns.unzip
    val types = arrays.map(a => Map[Class[_], DataType](classOf[Array[Long]] -> LongType,
      classOf[Array[Int]] -> IntegerType, classOf[Array[Double]] -> DoubleType)(a.getClass))
    def frame(rows: Seq[Row], shape: DataType => DataType) = spark.createDataFrame(java.util.Arrays.asList(rows: _*),
      StructType(names.zip(types).map { case (c, t) => StructField(c, shape(t), nullable = false) }))
    if (arrays.head.length < OneRowFrom) frame(Seq.tabulate(arrays.head.length)(i => Row(arrays.map(_(i)): _*)), identity)
    // arrays_zip makes every field nullable; a coalesce with a literal marks each non-nullable again.
    else frame(Seq(Row(arrays: _*)), ArrayType(_, containsNull = false))
      .select(inline(arrays_zip(names.map(col): _*))).select(names.map(c => coalesce(col(c), lit(0)) as c): _*)
  }
}
