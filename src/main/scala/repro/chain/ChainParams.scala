package repro.chain

/** Parameters of the synthetic Ethereum-like ledger (DESIGN.md substitution #1).
  *
  * The generator plants `nCommunities` equal-sized latent account communities.
  * A transaction picks a community with a Zipf-like skew, its accounts inside
  * that community with another Zipf-like skew, and crosses community borders
  * with probability `1 - PIntra`. A single hub account (id 0) participates in
  * `HubShare` of all transactions — the paper reports one Ethereum account on
  * 11% of all 91M transactions, which is what breaks weight-balanced (METIS)
  * allocation. Small shares of self-loop and multi-account (3-4 accounts)
  * transactions exercise the 1/pi(Tx) edge-weight splitting.
  *
  * Everything is deterministic in (params, seed). `TxGen.transactions` draws
  * each transaction's 12 uniforms in plain Scala over 32 fixed txId range
  * slices, with the generator and the seeds of Spark's `rand(seed + j)` in
  * range partition i, and keeps Spark's scalar rules (`StrictMath.pow`,
  * truncating casts, `pmod`, double division), so the rows equal those
  * Spark's `rand` columns would give. It then coalesces the slices to one
  * partition per core.
  *
  * @param nTx          total number of transactions in the ledger
  * @param nAccounts    size of the account universe (upper bound; long-tail
  *                     sampling typically touches most but not all of it)
  * @param nCommunities number of planted communities (should exceed the
  *                     largest shard count k swept in experiments)
  * @param seed         base RNG seed
  */
final case class ChainParams(
    nTx: Long,
    nAccounts: Long,
    nCommunities: Int,
    seed: Long = 42L) {
  require(nTx > 0 && nAccounts > 0 && nCommunities > 0, "sizes must be positive")
  require(nAccounts >= nCommunities * 4L, "need >=4 accounts per community")

  /** Accounts per community (communities are equal-sized blocks of ids). */
  def commSize: Long = nAccounts / nCommunities

  /** Number of blocks in the ledger. */
  def nBlocks: Long = (nTx + ChainParams.TxPerBlock - 1) / ChainParams.TxPerBlock
}

object ChainParams {

  /** Transactions per block (Ethereum mid-2020: ~150). */
  val TxPerBlock = 150
  /** Fraction of transactions involving the hub account. */
  val HubShare = 0.11
  /** Fraction of single-account (self-loop) transactions. */
  val SelfShare = 0.01
  /** Fraction of 3-account transactions. */
  val Multi3Share = 0.03
  /** Fraction of 4-account transactions. */
  val Multi4Share = 0.01
  /** Probability a counterparty is drawn from the primary account's community. */
  val PIntra = 0.92
  /** Pareto tail exponent of the community-activity skew. Mild skew: the
    * hottest community carries ~5% of draws. Stronger skew glues a
    * paper-inconsistent giant Louvain community around the hub (the real
    * Ethereum hub community holds ~11-15% of the workload).
    */
  val CommAlpha = 0.08
  /** Pareto tail exponent of the within-community account-activity skew. */
  val RankAlpha = 0.70

  /** TPC-H-style scale factor: SF=1 is ~6M transactions / ~860K accounts,
    * mirroring the paper's 91.8M-tx / 12.6M-account ratio (~1 account per
    * 7 transactions). Tests use sf=0.01, benchmarks sf=0.1.
    *
    * @throws IllegalArgumentException if `sf` is not finite and positive
    */
  def atScale(sf: Double, seed: Long = 42L): ChainParams = {
    require(sf > 0 && sf < Double.PositiveInfinity, s"scale factor must be finite and positive, got $sf")
    val nTx   = math.max(1000L, (6_000_000L * sf).toLong)
    val nAcc  = math.max(256L, nTx / 7L)
    val nComm = math.max(64, math.min(4096L, nAcc / 40L).toInt)
    ChainParams(nTx = nTx, nAccounts = nAcc, nCommunities = nComm, seed = seed)
  }
}
