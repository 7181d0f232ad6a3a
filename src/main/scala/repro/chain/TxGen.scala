package repro.chain

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.chain.ChainParams._

/** Synthetic Ethereum-like ledger generator (Spark DataFrame, deterministic).
  *
  * Output schema: `(txId: Long, block: Long, accounts: Array[Long])` with
  * `accounts` deduplicated and sorted. The ledger reproduces the structural
  * properties the paper's evaluation depends on (see DESIGN.md substitution #1):
  * planted community structure, long-tail account activity, a hub account in
  * ~11% of transactions, self-loop and multi-account transactions.
  */
object TxGen {

  /** Zipf-like index in [0, n): Pareto inverse-CDF `floor((1/u)^(1/alpha)) - 1`
    * wrapped modulo n, so the heavy head lands on low indices and the clipped
    * tail spreads ~uniformly instead of piling on index n-1.
    */
  private def zipfIdx(u: Column, alpha: Double, n: Long): Column = {
    // Clamp below 2^62 before the cast: small alpha makes (1/u)^(1/alpha)
    // overflow BIGINT (ANSI cast) for small u; the clamped tail wraps
    // uniformly through pmod anyway.
    val r = least(pow(lit(1.0) / (u + lit(1e-12)), lit(1.0 / alpha)), lit(4.6e18))
    pmod(r.cast("long") - 1, lit(n))
  }

  /** Account id for a (community, in-community Zipf rank) draw. Rank 0 of
    * every community is reserved (rank 0 of community 0 is the hub, reachable
    * only through the explicit hub branch), so the hub's transaction share is
    * exactly `HubShare`.
    */
  private def acct(comm: Column, u: Column, p: ChainParams): Column =
    comm * p.commSize + lit(1L) + zipfIdx(u, RankAlpha, p.commSize - 1)

  /** Shift an account to the next in-community slot (stays in [1, commSize)).
    * Used to resolve counterparty == primary collisions, which would
    * otherwise inflate the self-loop share far beyond `SelfShare` (top Zipf
    * ranks collide often).
    */
  private def bump(a: Column, p: ChainParams): Column = {
    val comm = (a / p.commSize).cast("long")
    val local = a - comm * p.commSize // in [1, commSize)
    comm * p.commSize + lit(1L) + pmod(local, lit(p.commSize - 1))
  }

  /** Generate the full ledger. Deterministic in `p`: the seeded `rand`
    * columns are drawn over a fixed 32-partition range, so every draw is made
    * in the same range partition on any machine, and the result is then
    * coalesced to one partition per core (no shuffle, rows in txId order), so
    * that every read of a cached ledger runs one task per core rather than 32
    * small ones.
    *
    * IMPORTANT Spark subtlety: `rand(seed)` expressions are stateful per
    * *instance* and only advance when evaluated, so a Column tree containing
    * `rand` must never be duplicated across output columns or placed inside
    * short-circuiting branches (`when`, `&&`) — the copies desynchronize.
    * We therefore materialize every random draw exactly once, unconditionally,
    * in a first projection, and derive everything else deterministically.
    */
  def transactions(spark: SparkSession, p: ChainParams): DataFrame = {
    val s = p.seed
    val base = spark.range(0, p.nTx, 1, 32).toDF("txId")

    // Projection 1: all raw uniform draws, each rand() used exactly once.
    val drawn = base.select(
      col("txId") +:
        (0 to 11).map(i => rand(s + i) as s"u$i"): _*)

    val selfCut = HubShare + SelfShare
    val m3Cut   = selfCut + Multi3Share
    val m4Cut   = m3Cut + Multi4Share

    // Projection 2: deterministic functions of the materialized draws.
    val rType = col("u0")
    val isHub  = rType < HubShare
    val isSelf = rType >= HubShare && rType < selfCut
    val isM3   = rType >= selfCut && rType < m3Cut
    val isM4   = rType >= m3Cut && rType < m4Cut

    val nC = p.nCommunities.toLong
    // Primary community. The hub has NO home community: its counterparties
    // are drawn from the global community distribution (below, via cMain),
    // mirroring the exchange-like most-active Ethereum account that transacts
    // with everyone — this is precisely what forces weight-balanced (METIS)
    // allocations to cut most hub edges (paper Figs. 2/4b).
    val cMain = zipfIdx(col("u1"), CommAlpha, nC)
    val acc1  = when(isHub, lit(0L)).otherwise(acct(cMain, col("u2"), p))

    // Counterparty community: same as primary w.p. PIntra, else a fresh draw.
    // Hub counterparties are spread UNIFORMLY over communities: the
    // exchange-like hub transacts with one-off users everywhere, so no single
    // community glues to it (otherwise Louvain forms a paper-inconsistent
    // giant hub community). uComm is a materialized draw (plain attribute),
    // so referencing it in both branches is safe.
    def party(uCross: Column, uComm: Column, uRank: Column): Column = {
      val c = when(isHub, (uComm * nC).cast("long") % nC)
        .otherwise(when(uCross < PIntra, cMain).otherwise(zipfIdx(uComm, CommAlpha, nC)))
      acct(c, uRank, p)
    }

    val acc2raw = party(col("u3"), col("u4"), col("u5"))
    val acc2 = when(isSelf, lit(null).cast("long"))
      .otherwise(when(acc2raw === acc1, bump(acc2raw, p)).otherwise(acc2raw))
    val acc3 = when(isM3 || isM4, party(col("u6"), col("u7"), col("u8")))
      .otherwise(lit(null).cast("long"))
    val acc4 = when(isM4, party(col("u9"), col("u10"), col("u11")))
      .otherwise(lit(null).cast("long"))

    drawn.select(
      col("txId"),
      (col("txId") / TxPerBlock).cast("long") as "block",
      array_sort(array_distinct(filter(array(acc1, acc2, acc3, acc4), _.isNotNull))) as "accounts",
    ).coalesce(spark.sparkContext.defaultParallelism)
  }

  /** Exploded (txId, account) pairs — the input shape of `repro.eval.Metrics`. */
  def txAccounts(txs: DataFrame): DataFrame =
    txs.select(col("txId"), explode(col("accounts")) as "account")

  /** The ledger's `(txId, block, accounts)` rows on the driver, from one
    * [[Incidence.collect]], in partition order. That is txId order for a ledger
    * of [[transactions]], whose coalesced partitions are contiguous txId ranges.
    *
    * @throws IllegalArgumentException if the txIds do not strictly ascend, or
    *   for a row [[Incidence.collect]] rejects
    */
  def collectByTxId(txs: DataFrame): Incidence = {
    val in = Incidence.collect(txs)
    (1 until in.nTx).find(t => in.txId(t - 1) >= in.txId(t)).foreach { t =>
      throw new IllegalArgumentException(s"txIds not strictly ascending: txId ${in.txId(t)} follows ${in.txId(t - 1)}")
    }
    in
  }

  /** Distinct accounts appearing in the ledger (the allocation domain A). */
  def accounts(txs: DataFrame): DataFrame =
    txAccounts(txs).select("account").distinct()
}
