package repro.alloc

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.expressions.XXH64
import org.apache.spark.sql.functions.{col, udf}

/** Hash-based random allocation — the baseline of OmniLedger, RapidChain,
  * Monoxide and Chainspace (`SHA256(address) mod k`). We use xxHash64 as the
  * deterministic, uniform stand-in; with mostly two-account transactions this
  * yields the paper's ~`1 - 1/k` cross-shard ratio (98% at k = 60).
  */
object HashAllocator {

  /** The shard of account `id`: Spark's own xxHash64 with Spark's seed 42,
    * the hash its `xxhash64(account)` column computes, modulo k in [0, k).
    */
  def shard(id: Long, k: Int): Int = Math.floorMod(XXH64.hashLong(id, 42L), k.toLong).toInt

  /** [[shard]] over a DataFrame.
    *
    * @param accounts DataFrame with a single `account: Long` column
    * @return (account, shard) DataFrame
    */
  def allocate(accounts: DataFrame, k: Int): DataFrame =
    accounts.select(col("account"), udf((a: Long) => shard(a, k)).apply(col("account")) as "shard")
}
