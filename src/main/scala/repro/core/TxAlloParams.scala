package repro.core

/** Hyper-parameters of TxAllo (paper Section V-A).
  *
  * @param k         number of shards
  * @param eta       workload of processing a cross-shard transaction (>= 1);
  *                  intra-shard transactions cost 1
  * @param lambda    processing capacity of each shard (paper setting:
  *                  |T| / k, i.e. totalWeight / k on the graph)
  * @param epsilon   convergence threshold on the per-sweep throughput gain
  *                  (paper setting: 1e-5 * |T|)
  */
final case class TxAlloParams(
    k: Int,
    eta: Double,
    lambda: Double,
    epsilon: Double) {
  require(k >= 1, "k must be >= 1")
  require(eta >= 1.0, "eta must be >= 1")
  require(lambda > 0.0, "lambda must be positive")

  /** Safety cap on optimization sweeps. */
  val maxSweeps: Int = 500
}

object TxAlloParams {

  /** Paper defaults derived from the graph: lambda = totalWeight/k,
    * epsilon = 1e-5 * totalWeight.
    */
  def default(g: Graph, k: Int, eta: Double): TxAlloParams = {
    val tw = math.max(g.totalWeight, 1e-9)
    TxAlloParams(k = k, eta = eta, lambda = tw / k, epsilon = 1e-5 * tw)
  }
}
