package repro.chain

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import scala.collection.mutable

/** Transactions on the driver as flat arrays: row t is transaction `txId(t)`
  * of block `block(t)`, with the accounts
  * `accounts(offsets(t) until offsets(t + 1))`.
  */
final case class Incidence(txId: Array[Long], block: Array[Long], offsets: Array[Int], accounts: Array[Long]) {
  def nTx: Int = offsets.length - 1

  /** The first row whose block is at least `b`, or `nTx` if there is none,
    * by binary search: `block` ascends in a ledger collected in txId order.
    */
  def firstTxOf(b: Long): Int = {
    var (lo, hi) = (0, nTx)
    while (lo < hi) { val mid = (lo + hi) >>> 1; if (block(mid) < b) lo = mid + 1 else hi = mid }
    lo
  }
}

object Incidence {

  /** The `(txId, block, accounts)` rows of `txs` on the driver, in partition
    * order: each partition packs its rows into primitive arrays, not a row
    * object and a boxed account array per transaction.
    *
    * @throws IllegalArgumentException naming the row's txId if a txId, block,
    *   account set or account is null, or an account set is empty
    */
  def collect(txs: DataFrame): Incidence = {
    val parts = txs.select(col("txId").cast("long"), col("block").cast("long"), col("accounts").cast("array<bigint>"))
      .queryExecution.toRdd.mapPartitions { rows =>
        val (txId, block, accounts) = (new mutable.ArrayBuilder.ofLong, new mutable.ArrayBuilder.ofLong,
                                       new mutable.ArrayBuilder.ofLong)
        val sizes = new mutable.ArrayBuilder.ofInt
        var problem: String = null
        while (problem == null && rows.hasNext) {
          val r = rows.next()
          val a = if (r.isNullAt(2)) null else r.getArray(2)
          problem =
            if (r.isNullAt(0)) "a null txId"
            else if (r.isNullAt(1)) s"txId ${r.getLong(0)}: null block"
            else if (a == null || a.numElements() == 0) s"txId ${r.getLong(0)}: null or empty account set"
            else if ((0 until a.numElements()).exists(a.isNullAt)) s"txId ${r.getLong(0)}: null account"
            else null
          if (problem == null) { txId += r.getLong(0); block += r.getLong(1); sizes += a.numElements(); accounts ++= a.toLongArray() }
        }
        Iterator((txId.result(), block.result(), sizes.result(), accounts.result(), problem))
      }.collect()
    parts.flatMap(p => Option(p._5)).headOption.foreach(p => throw new IllegalArgumentException(p))
    Incidence(Array.concat(parts.toSeq.map(_._1): _*), Array.concat(parts.toSeq.map(_._2): _*),
              Array.concat(parts.toSeq.map(_._3): _*).scanLeft(0)(_ + _), Array.concat(parts.toSeq.map(_._4): _*))
  }
}
