// Generic flat-node driver: runs a FlatProgram on the *real* Scheduler.
//
// Each node owns one stable slot holding its PendingWake; registering the
// wake with a null handle_address routes the scheduler's resume back into
// FlatRuntime::Step (the FlatStepper hook), which advances the program's
// state machine and re-registers the same wake for the next round. Every
// scheduler feature — fault verdicts, wake jitter/crash, the auditor, the
// sharded engine's exchange — therefore sees the identical event stream
// as a coroutine run of the same algorithm. The cost of generality is the
// scheduler's per-wake bookkeeping; the fault-free serial fast path lives
// in runtime/flat/engine.h instead.
#pragma once

#include <cstdint>
#include <exception>
#include <vector>

#include "smst/graph/graph.h"
#include "smst/runtime/flat/program.h"
#include "smst/runtime/scheduler.h"

namespace smst {

class FlatRuntime : public FlatStepper {
 public:
  // `nodes` lists the node indices this runtime owns (all of them for the
  // serial engine; one shard's partition for the sharded engine), in
  // ascending order. Installs itself as the scheduler's FlatStepper.
  FlatRuntime(Scheduler& scheduler, FlatProgram& program, Metrics& metrics,
              std::vector<NodeIndex> nodes);

  // Runs every node to its first suspension and registers the resulting
  // wakes, in ascending node order — the flat equivalent of constructing
  // all Tasks and then TaskRunner::Start()ing them in a second pass.
  void StartAll();

  // FlatStepper: one awake round for the node owning `wake`.
  void Step(PendingWake& wake) override;

  // Mirrors TaskRunner queries, indexed by position in `nodes`. A failed
  // node counts as done (as a coroutine runs to completion via
  // unhandled_exception); a node whose wake was crash-suppressed stays
  // not-done forever.
  bool DoneAt(std::size_t local) const {
    return status_[local] != Status::kRunning;
  }
  void RethrowIfFailedAt(std::size_t local) const;

  std::uint64_t CountUnfinished() const;
  // Smallest owned node index still unfinished (kInvalidNode if none).
  NodeIndex FirstUnfinishedNode() const;
  // Rethrows the failure of the smallest-index failed node, if any.
  void RethrowFirstFailure() const;

 private:
  enum class Status : std::uint8_t { kRunning, kDone, kFailed };

  Scheduler& scheduler_;
  FlatProgram& program_;
  FlatEnv env_;
  std::vector<NodeIndex> nodes_;
  // Sized once in the constructor and never resized: the scheduler holds
  // pointers into wakes_ across the whole run.
  std::vector<PendingWake> wakes_;
  std::vector<Status> status_;
  std::vector<std::exception_ptr> errors_;
};

}  // namespace smst
