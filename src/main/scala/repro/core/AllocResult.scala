package repro.core

/** Result of a TxAllo run.
  *
  * @param ids             account ids, aligned with `assign`
  * @param assign          shard per node index (all in [0, k))
  * @param initThroughput  modeled graph throughput after the join phase
  * @param finalThroughput modeled graph throughput at convergence
  * @param sweeps          optimization sweeps executed
  * @param nanos           wall-clock running time of the whole algorithm, in ns
  */
final case class AllocResult(
    ids: Array[Long],
    assign: Array[Int],
    initThroughput: Double,
    finalThroughput: Double,
    sweeps: Int,
    nanos: Long) {

  require(ids.length == assign.length, "ids/assign length mismatch")

  /** Account-id keyed mapping (Definition 1 output). */
  def toMap: Map[Long, Int] = ids.iterator.zip(assign.iterator).toMap
}

/** Graph-level diagnostics shared by tests and harnesses (no Spark needed). */
object GraphMetrics {

  /** Inter-community weight ratio — the graph-level cross-shard transaction
    * ratio gamma (Section III-C). Self-loops are intra by definition.
    */
  def cutRatio(g: Graph, assign: Array[Int]): Double = {
    if (g.totalWeight == 0) return 0.0
    var cut = 0.0
    var v = 0
    while (v < g.n) {
      g.foreachNbr(v)((u, w) => if (u > v && assign(u) != assign(v)) cut += w)
      v += 1
    }
    cut / g.totalWeight
  }
}
