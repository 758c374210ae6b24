#!/bin/sh
# Runs smst_cli where the host runs out of memory: each run gets an
# address-space limit (`ulimit -v`, KiB) its graph fits in but its
# simulation does not. An allocation failure is the host's, not the
# run's, so every run must exit 2 with an "error:" line: not report a
# fault outcome such as crashed-partition (exit 0), and not abort once
# failed nodes have used up the exception emergency pool (exit 134).
#
#  - 215000, 2 shards: a shard worker fails while building its state;
#  - 160000, 2 shards: the workers fail mid-run;
#  - 56000, 1 shard: the round loop fails mid-run.
#
# The limits sit between a run's set-up and its peak (the 1-shard run
# peaks under 64000, 2 shards under 190000); a change that makes a run
# fit must lower its limit.
#
# Usage: alloc_failure_test.sh path/to/smst_cli
cli="$1"
ulimit -S -s 8192 || exit 1
plan="--fault-plan drop=0.001"
for run in "215000 --graph ring --n 200000 --shards 2 $plan" \
           "160000 --graph ring --n 50000 --shards 2 $plan" \
           "56000 --graph ring --n 50000 $plan"; do
  limit=${run%% *}
  args=${run#* }
  out=$( (ulimit -v "$limit" && exec "$cli" $args --quiet) 2>&1 )
  status=$?
  echo "ulimit -v $limit; smst_cli $args: exit $status: $out"
  [ "$status" -eq 2 ] || exit 1
  case "$out" in
    *error:*) ;;
    *) exit 1 ;;
  esac
done
