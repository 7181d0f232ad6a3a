package org.apache.spark

/** Access to Spark's listener bus, which is private to the `spark` package. */
object PerfbenchBus {

  /** Blocks until every posted listener event has been delivered. */
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
