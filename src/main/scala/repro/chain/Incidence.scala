package repro.chain

import org.apache.spark.sql.DataFrame
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

  /** The `(txId, block, accounts)` rows of `txs` on the driver, in partition order, read through the input's
    * own plan (a cached input is planned once, a projection anew): each partition packs its rows into
    * primitive arrays, not a row object and a boxed account array per transaction.
    *
    * @throws IllegalArgumentException naming the row's txId if a txId, block, account set or account is
    *   null or an account set empty; naming the column if it is not `bigint` (`array<bigint>` for `accounts`)
    */
  def collect(txs: DataFrame): Incidence = {
    val Seq(ti, bi, ai) = Seq("txId" -> "bigint", "block" -> "bigint", "accounts" -> "array<bigint>").map { case (c, t) =>
      require(txs.schema(c).dataType.simpleString == t, s"$c is ${txs.schema(c).dataType.simpleString}, not $t")
      txs.schema.fieldIndex(c)
    }
    val parts = txs.queryExecution.toRdd.mapPartitions { rows =>
      val Seq(txId, block, accounts) = Seq.fill(3)(new mutable.ArrayBuilder.ofLong)
      val sizes = new mutable.ArrayBuilder.ofInt
      var problem: String = null
      while (problem == null && rows.hasNext) {
        val r = rows.next()
        val a = if (r.isNullAt(ai)) null else r.getArray(ai)
        problem =
          if (r.isNullAt(ti)) "a null txId"
          else if (r.isNullAt(bi)) s"txId ${r.getLong(ti)}: null block"
          else if (a == null || a.numElements() == 0) s"txId ${r.getLong(ti)}: null or empty account set"
          else if ((0 until a.numElements()).exists(a.isNullAt)) s"txId ${r.getLong(ti)}: null account"
          else null
        if (problem == null) { txId += r.getLong(ti); block += r.getLong(bi); sizes += a.numElements(); accounts ++= a.toLongArray() }
      }
      Iterator((txId.result(), block.result(), sizes.result(), accounts.result(), problem))
    }.collect()
    parts.flatMap(p => Option(p._5)).headOption.foreach(p => throw new IllegalArgumentException(p))
    Incidence(Array.concat(parts.toSeq.map(_._1): _*), Array.concat(parts.toSeq.map(_._2): _*),
              Array.concat(parts.toSeq.map(_._3): _*).scanLeft(0)(_ + _), Array.concat(parts.toSeq.map(_._4): _*))
  }
}
