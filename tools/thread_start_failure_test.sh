#!/bin/sh
# Runs smst_cli where its worker threads cannot all start: 16 thread
# stacks of 8 MiB do not fit in 120,000 KiB of address space. Each run
# must join the workers that did start and exit 2 with an "error:" line,
# not abort on a joinable thread.
#
# Usage: thread_start_failure_test.sh path/to/smst_cli
cli="$1"
ulimit -S -s 8192 || exit 1
ulimit -v 120000 || exit 1
for run in "--graph ring --n 64 --shards 16" \
           "--graph ring --n 64 --shards 16 --fault-plan drop=0.001" \
           "--seeds 16 --threads 16"; do
  out=$("$cli" $run --quiet 2>&1)
  status=$?
  echo "smst_cli $run: exit $status: $out"
  [ "$status" -eq 2 ] || exit 1
  case "$out" in
    *error:*) ;;
    *) exit 1 ;;
  esac
done
