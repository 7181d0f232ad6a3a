package repro.chain

import java.nio.ByteBuffer
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{ArrayType, LongType, StructField, StructType}
import repro.chain.ChainParams._
import scala.collection.immutable.ArraySeq
import scala.util.hashing.MurmurHash3

/** Synthetic Ethereum-like ledger generator (Spark DataFrame, deterministic).
  *
  * Output schema: `(txId: Long, block: Long, accounts: Array[Long])` with
  * `accounts` deduplicated and sorted. The ledger reproduces the structural
  * properties the paper's evaluation depends on (see DESIGN.md substitution #1):
  * planted community structure, long-tail account activity, a hub account in
  * ~11% of transactions, self-loop and multi-account transactions.
  *
  * The rows are drawn in plain Scala, and they equal, bit for bit, what
  * Spark's `rand` columns would give over `spark.range(0, nTx, 1, 32)`:
  *   - Range slice i holds txIds `[i * nTx / 32, (i + 1) * nTx / 32)`,
  *     computed without overflow, as Spark's range splits them.
  *   - Each row makes 12 uniform draws, all of them, whatever branch it takes.
  *     Draw j in slice i comes from the generator seeded `seed + j + i`,
  *     advanced once per row. That is `rand(seed + j)` in range partition i.
  *   - Spark's scalar rules are kept: `POWER` is `StrictMath.pow`, a cast from
  *     double to long truncates toward zero, `pmod` and `%` are Spark's, and
  *     `/` on integers divides as doubles.
  * `TxGenSpec` checks the rows against a Catalyst reference drawn with `rand`.
  */
object TxGen {

  /** Range slices the ledger is drawn over, fixed so no draw depends on the core count. */
  private val Slices = 32

  /** Uniform draws per transaction. */
  private[chain] val Draws = 12

  /** The ledger's schema, as Catalyst types the same ledger drawn with `rand`
    * columns (`TxGenSpec` compares the two): `block` nullable, `accounts`
    * may hold nulls.
    */
  private val Schema = StructType(Seq(
    StructField("txId", LongType, nullable = false),
    StructField("block", LongType, nullable = true),
    StructField("accounts", ArrayType(LongType, containsNull = true), nullable = false)))

  /** Spark's `XORShiftRandom`, the generator behind `rand(seed)`: the seed is
    * hashed with MurmurHash3 into the low and the high word, each step is
    * xorshift 21/35/4, and a double is `java.util.Random`'s 53-bit draw.
    */
  private[chain] final class XorShift(init: Long) {
    private var s: Long = {
      val bytes = ByteBuffer.allocate(java.lang.Long.BYTES).putLong(init).array()
      val lo = MurmurHash3.bytesHash(bytes, MurmurHash3.arraySeed)
      val hi = MurmurHash3.bytesHash(bytes, lo)
      (hi.toLong << 32) | (lo.toLong & 0xFFFFFFFFL)
    }

    private def next(bits: Int): Long = {
      s ^= s << 21
      s ^= s >>> 35
      s ^= s << 4
      s & ((1L << bits) - 1)
    }

    def nextDouble(): Double = ((next(26) << 27) + next(27)) * (1.0 / (1L << 53))
  }

  /** txIds `[from, until)` of range slice `i`. */
  private[chain] def slice(nTx: Long, i: Int): (Long, Long) =
    ((BigInt(i) * nTx / Slices).toLong, (BigInt(i + 1) * nTx / Slices).toLong)

  /** The generators of range slice `i`, one per draw: draw j is `rand(seed + j)`. */
  private[chain] def generators(seed: Long, i: Int): Array[XorShift] =
    Array.tabulate(Draws)(j => new XorShift(seed + j + i))

  /** Spark's `pmod`: the remainder of `a` by `n`, moved into [0, n). */
  private def pmod(a: Long, n: Long): Long = {
    val r = a % n
    if (r < 0) (r + n) % n else r
  }

  /** Zipf-like index in [0, n): Pareto inverse-CDF `floor((1/u)^(1/alpha)) - 1`
    * wrapped modulo n, so the heavy head lands on low indices and the clipped
    * tail spreads ~uniformly instead of piling on index n-1.
    */
  private def zipfIdx(u: Double, alpha: Double, n: Long): Long =
    // Clamp below 2^62 before the cast: small alpha makes (1/u)^(1/alpha)
    // overflow a long for small u; the clamped tail wraps uniformly through
    // pmod anyway.
    pmod(math.min(StrictMath.pow(1.0 / (u + 1e-12), 1.0 / alpha), 4.6e18).toLong - 1, n)

  /** The ledger row of `txId`, from its draws `u`. */
  private def row(p: ChainParams, txId: Long, u: Array[Double]): Row = {
    val nC = p.nCommunities.toLong
    val cs = p.commSize

    // Account id for a (community, in-community Zipf rank) draw. Rank 0 of
    // every community is reserved (rank 0 of community 0 is the hub, reachable
    // only through the explicit hub branch), so the hub's transaction share is
    // exactly `HubShare`.
    def acct(comm: Long, u: Double): Long = comm * cs + 1L + zipfIdx(u, RankAlpha, cs - 1)

    // Shift an account to the next in-community slot (stays in [1, commSize)).
    // Used to resolve counterparty == primary collisions, which would
    // otherwise inflate the self-loop share far beyond `SelfShare` (top Zipf
    // ranks collide often).
    def bump(a: Long): Long = {
      val comm = (a.toDouble / cs).toLong
      comm * cs + 1L + pmod(a - comm * cs, cs - 1)
    }

    val selfCut = HubShare + SelfShare
    val m3Cut   = selfCut + Multi3Share
    val m4Cut   = m3Cut + Multi4Share
    val isHub  = u(0) < HubShare
    val isSelf = u(0) >= HubShare && u(0) < selfCut
    val isM3   = u(0) >= selfCut && u(0) < m3Cut
    val isM4   = u(0) >= m3Cut && u(0) < m4Cut

    // Primary community. The hub has NO home community: its counterparties
    // are drawn from the global community distribution (below, via cMain),
    // mirroring the exchange-like most-active Ethereum account that transacts
    // with everyone — this is precisely what forces weight-balanced (METIS)
    // allocations to cut most hub edges (paper Figs. 2/4b).
    val cMain = zipfIdx(u(1), CommAlpha, nC)
    val acc1  = if (isHub) 0L else acct(cMain, u(2))

    // Counterparty from draws j, j+1, j+2: its community is the primary's
    // w.p. PIntra, else a fresh draw. Hub counterparties are spread UNIFORMLY
    // over communities: the exchange-like hub transacts with one-off users
    // everywhere, so no single community glues to it (otherwise Louvain forms
    // a paper-inconsistent giant hub community).
    def party(j: Int): Long = {
      val c = if (isHub) (u(j + 1) * nC).toLong % nC
              else if (u(j) < PIntra) cMain
              else zipfIdx(u(j + 1), CommAlpha, nC)
      acct(c, u(j + 2))
    }

    val acc = new Array[Long](4)
    var n = 0
    def add(a: Long): Unit = { acc(n) = a; n += 1 }
    add(acc1)
    if (!isSelf) { val a = party(3); add(if (a == acc1) bump(a) else a) }
    if (isM3 || isM4) add(party(6))
    if (isM4) add(party(9))
    java.util.Arrays.sort(acc, 0, n)
    Row(txId, (txId.toDouble / TxPerBlock).toLong, ArraySeq.unsafeWrapArray(acc.take(n)).distinct)
  }

  /** Generate the full ledger. Deterministic in `p`: every draw is made in
    * the same range slice on any machine, and the 32 slices are then
    * coalesced to one partition per core (no shuffle, rows in txId order), so
    * that every read of a cached ledger runs one task per core rather than 32
    * small ones.
    */
  def transactions(spark: SparkSession, p: ChainParams): DataFrame = {
    val rows = spark.sparkContext.parallelize(0 until Slices, Slices).mapPartitionsWithIndex { (i, _) =>
      val (from, until) = slice(p.nTx, i)
      val gen = generators(p.seed, i)
      Iterator.iterate(from)(_ + 1).takeWhile(_ < until).map(t => row(p, t, gen.map(_.nextDouble())))
    }
    spark.createDataFrame(rows, Schema).coalesce(spark.sparkContext.defaultParallelism)
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
