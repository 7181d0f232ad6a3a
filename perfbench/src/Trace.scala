package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable
import scala.jdk.CollectionConverters._

import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** One timed call into a layer. Times are `System.nanoTime` readings.
  *
  * @param parent   id of the enclosing span, or -1 at the root
  * @param measured true when the call ran in the measured phase (not set-up)
  * @param gcNanos  collector time of all GC MXBeans during the call
  */
final case class Span(id: Int, name: String, parent: Int, start: Long, end: Long,
                      measured: Boolean, gcNanos: Long) {
  def seconds: Double = (end - start) / 1e9
}

/** Spark work of one span: jobs, tasks, shuffle read + write bytes. */
final case class SparkWork(jobs: Long, tasks: Long, shuffleBytes: Long) {
  def -(o: SparkWork): SparkWork = SparkWork(jobs - o.jobs, tasks - o.tasks, shuffleBytes - o.shuffleBytes)
}

/** Times every call the benchmark makes into a layer.
  *
  * Untraced, `span` only measures the call's wall time, which the end-to-end
  * metrics need. Traced, it also records a span (name, start, end, parent)
  * in memory with the GC time and the Spark jobs, tasks and shuffle bytes of
  * the call. Calls run one at a time on the driver thread, so the Spark work
  * of a call is the change in a listener's totals across it, read after
  * Spark has delivered every pending event. The spans are written out once,
  * at the end of the run.
  */
final class Tracer(val on: Boolean, sc: SparkContext) {
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var stack: List[Int] = Nil
  private var nextId = 0
  private var bookkeepingNanos = 0L
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  /** Set while the measured phase runs; spans opened before it are set-up. */
  var measured = false

  private val jobs = new java.util.concurrent.atomic.AtomicLong
  private val tasks = new java.util.concurrent.atomic.AtomicLong
  private val shuffleBytes = new java.util.concurrent.atomic.AtomicLong
  private val work = mutable.HashMap.empty[Int, SparkWork]

  if (on) sc.addSparkListener(new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
      tasks.incrementAndGet()
      if (e.taskMetrics != null) shuffleBytes.addAndGet(
        e.taskMetrics.shuffleReadMetrics.totalBytesRead + e.taskMetrics.shuffleWriteMetrics.bytesWritten)
    }
  })

  private def sparkTotals(): SparkWork = {
    org.apache.spark.PerfbenchBus.drain(sc)
    SparkWork(jobs.get, tasks.get, shuffleBytes.get)
  }

  private def gcNanos(): Long = gcBeans.map(_.getCollectionTime).sum * 1000000L

  /** Runs `f`; returns its result and wall seconds, recording a span if on. */
  def span[A](name: String)(f: => A): (A, Double) = {
    if (!on) {
      val t0 = System.nanoTime()
      val r = f
      (r, (System.nanoTime() - t0) / 1e9)
    } else {
      val b0 = System.nanoTime()
      val id = nextId
      nextId += 1
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val spark0 = sparkTotals()
      val gc0 = gcNanos()
      val t0 = System.nanoTime()
      bookkeepingNanos += t0 - b0
      val r =
        try f
        finally {
          val t1 = System.nanoTime()
          spans += Span(id, name, parent, t0, t1, measured, gcNanos() - gc0)
          work(id) = sparkTotals() - spark0
          stack = stack.tail
          bookkeepingNanos += System.nanoTime() - t1
        }
      (r, spans.last.seconds)
    }
  }

  /** Seconds spent inside the tracer itself, outside the calls it times. */
  def bookkeepingSeconds: Double = bookkeepingNanos / 1e9

  def all: Seq[Span] = spans.toSeq

  def sparkWork(id: Int): SparkWork = work.getOrElse(id, SparkWork(0, 0, 0))

  /** Self time: the span's duration minus the part its children cover. */
  def selfSeconds(all: Seq[Span]): Map[Int, Double] = {
    val children = all.filter(_.parent >= 0).groupBy(_.parent)
    all.map { s =>
      val covered = children.getOrElse(s.id, Nil).map(c => c.end - c.start).sum
      s.id -> (s.end - s.start - covered) / 1e9
    }.toMap
  }

  /** Writes the spans as JSON lines: id, name, parent, start/end ns, measured. */
  def write(path: java.nio.file.Path, all: Seq[Span]): Unit = {
    val lines = all.map { s =>
      val w = sparkWork(s.id)
      s"""{"id":${s.id},"name":"${s.name}","parent":${s.parent},"start_ns":${s.start},""" +
        s""""end_ns":${s.end},"measured":${s.measured},"gc_ns":${s.gcNanos},""" +
        s""""jobs":${w.jobs},"tasks":${w.tasks},"shuffle_bytes":${w.shuffleBytes}}"""
    }
    java.nio.file.Files.createDirectories(path.getParent)
    java.nio.file.Files.write(path, lines.asJava)
  }
}
