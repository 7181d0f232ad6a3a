package perfbench

import scala.collection.mutable
import scala.util.control.NonFatal

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.chain.ChainParams

/** What every workload gets: the session, the cached ledger and its driver
  * copy, the tracer, and the run's measured samples, counters and failures.
  */
final class Run(val spark: SparkSession, val params: ChainParams, val txs: DataFrame,
                val ledger: Ledger, val tracer: Tracer, seconds: Int) {

  val nTx: Long = ledger.nTx.toLong

  var attempted = 0L
  var failed = 0L

  /** End-to-end samples of the measured phase. */
  val allocSeconds = mutable.ArrayBuffer.empty[Double]
  val evalSeconds = mutable.ArrayBuffer.empty[Double]
  val normThroughput = mutable.ArrayBuffer.empty[Double]
  var heapRetainedMb = Double.NaN

  /** Per-layer counts: name -> (value, recorded in the measured phase). */
  val counts = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[(Double, Boolean)]]
  private val fingerprints = mutable.LinkedHashMap.empty[String, Int]
  private var problems = List.empty[String]

  def measuring: Boolean = tracer.measured

  def span[A](name: String)(f: => A): (A, Double) = tracer.span(name)(f)

  def count(name: String, v: Double): Unit =
    counts.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += ((v, measuring))

  /** Records a failed check of the current operation. */
  def check(result: Option[String]): Unit = result.foreach(p => problems ::= p)

  /** One operation: it fails if it throws or any of its checks fails. */
  def op(name: String)(body: => Unit): Unit = {
    attempted += 1
    problems = Nil
    try span("op")(body)
    catch { case NonFatal(e) => problems ::= s"$e" }
    if (problems.nonEmpty) {
      failed += 1
      problems.reverse.foreach(p => Console.err.println(s"perfbench: FAILED $name: $p"))
    }
  }

  private val printed = mutable.Set.empty[String]

  /** Prints `msg` to standard error the first time `key` is seen. */
  def printOnce(key: String, msg: => String): Unit = if (printed.add(key)) Console.err.println(msg)

  /** Determinism: a named mapping has the same fingerprint on every rep. */
  def sameAsBefore(name: String, m: Mapping): Option[String] = {
    val fp = m.fingerprint
    fingerprints.get(name) match {
      case None =>
        fingerprints(name) = fp
        Console.err.println(f"perfbench: fingerprint $name = 0x$fp%08x (${m.ids.length} accounts)")
        None
      case Some(prev) if prev != fp => Some(f"$name fingerprint 0x$fp%08x != 0x$prev%08x of the first rep")
      case _ => None
    }
  }

  val jvmStartMillis: Long = java.lang.management.ManagementFactory.getRuntimeMXBean.getStartTime

  /** Wall-clock end of set-up, in epoch milliseconds. */
  var setupEndMillis = 0L

  /** Marks the end of set-up: everything after this is measured. */
  def startMeasuring(): Unit = {
    setupEndMillis = System.currentTimeMillis()
    tracer.measured = true
    Console.err.println(f"perfbench: set-up done after ${(setupEndMillis - jvmStartMillis) / 1000.0}%.1f s")
  }

  /** Runs `step` at least `minOps` times, then again until `seconds` have
    * passed since the first call or `step` reports that no input remains.
    */
  def forSeconds(minOps: Int)(step: => Boolean): Unit = {
    val end = System.nanoTime() + seconds * 1000000000L
    var n = 0
    var more = true
    while (more && (n < minOps || System.nanoTime() < end)) {
      more = step
      n += 1
    }
  }

  /** Driver heap in use after full collections, while the workload's state is live. */
  def recordHeap(): Unit = {
    // Spark's cleaner frees blocks asynchronously: collect, let it run, collect again.
    (0 until 3).foreach { _ => System.gc(); Thread.sleep(100) }
    val mx = java.lang.management.ManagementFactory.getMemoryMXBean
    heapRetainedMb = mx.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }
}
