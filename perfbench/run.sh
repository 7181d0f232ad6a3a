#!/usr/bin/env bash
# TxAllo pipeline benchmark.
#
# Usage, from the repository root:
#   bash perfbench/run.sh --workload global|adaptive --seed N --seconds S --trace 0|1
#
# The first call builds the benchmark into .bench_build/perfbench:
#   1. it compiles the repository's main sources that the benchmark calls
#      (chain, core, alloc, metis, eval) together with perfbench/src, using
#      the Scala compiler and Spark jars of the Spark distribution
#      (SPARK_HOME, or the one whose spark-submit is on PATH), into a jar;
#   2. it runs the global workload once on a small ledger to write a
#      class-data-sharing archive of every class a run loads, so that later
#      JVMs map those classes instead of loading and verifying them.
# Later calls reuse that build while the sources are unchanged. The last line
# of standard output is the JSON result; everything else goes to standard
# error.
set -euo pipefail

repo_src=src/main/scala/repro
bench_src=perfbench/src
if [ ! -d "$repo_src" ] || [ ! -d "$bench_src" ]; then
  echo "perfbench: $repo_src or $bench_src not found; run from the repository root" >&2
  exit 2
fi

spark_home=${SPARK_HOME:-$(dirname "$(dirname "$(readlink -f "$(command -v spark-submit)")")")}
jars="$spark_home/jars/*"
build=.bench_build/perfbench
jar="$build/perfbench.jar"
archive="$build/perfbench.jsa"
mapfile -t sources < <(ls "$repo_src"/{chain,core,alloc,metis,eval}/*.scala "$bench_src"/*.scala)
stamp=$(cat "${sources[@]}" | cksum | cut -d' ' -f1)

# JVM log messages go to standard error, so the result stays the last line
# of standard output.
jvm=(java -Xms4g -Xmx4g -Xss8m -Xlog:disable -Xlog:all=warning:stderr
  -Djava.io.tmpdir="$build/tmp"
  -Dlog4j2.configurationFile=perfbench/log4j2.properties
  -Dspark.local.dir="$build/spark-local")

if [ "$(cat "$build/stamp" 2>/dev/null || true)" != "$stamp" ]; then
  echo "perfbench: compiling ${#sources[@]} sources" >&2
  rm -rf "$build"
  mkdir -p "$build/classes" "$build/tmp" "$build/spark-local"
  java -Xss8m -Xmx2g -cp "$jars" scala.tools.nsc.Main -usejavacp -nowarn \
    -d "$build/classes" "${sources[@]}" >&2
  jar cf "$jar" -C "$build/classes" .
  rm -rf "$build/classes"
  echo "perfbench: writing the class-data-sharing archive" >&2
  if ! "${jvm[@]}" -XX:ArchiveClassesAtExit="$archive" -cp "$jar:$jars" perfbench.Main \
      --workload global --seed 1 --seconds 0 --trace 0 --sf 0.002 > "$build/archive.log" 2>&1; then
    cat "$build/archive.log" >&2
    exit 1
  fi
  echo "$stamp" > "$build/stamp"
fi

mkdir -p "$build/tmp" "$build/spark-local"
share=()
if [ -f "$archive" ]; then share=(-XX:SharedArchiveFile="$archive"); fi
exec "${jvm[@]}" "${share[@]}" -cp "$jar:$jars" perfbench.Main "$@"
