package repro.chain

/** Transactions on the driver as flat arrays: row t is transaction `txId(t)`
  * of block `block(t)`, with the accounts
  * `accounts(offsets(t) until offsets(t + 1))`.
  */
final case class Incidence(txId: Array[Long], block: Array[Long], offsets: Array[Int], accounts: Array[Long]) {
  def nTx: Int = offsets.length - 1
}

object Incidence {

  /** The flat `(offsets, accounts)` of per-transaction account arrays, in
    * their order.
    */
  def flatten(txs: Array[Array[Long]]): (Array[Int], Array[Long]) = {
    val offsets = new Array[Int](txs.length + 1)
    for (t <- txs.indices) offsets(t + 1) = offsets(t) + txs(t).length
    (offsets, txs.flatten)
  }
}
