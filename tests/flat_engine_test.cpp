// Engine selection (DESIGN §13): engine-name parsing and which program
// kinds each EngineMode accepts. That every MST algorithm gives the same
// run on every round loop is pinned by mst_golden_test.
#include <stdexcept>

#include <gtest/gtest.h>

#include "smst/graph/generators.h"
#include "smst/runtime/simulator.h"

namespace smst {
namespace {

// ------------------------------------------------ option validation ---

TEST(FlatEngineOptionsTest, EngineNamesRoundTrip) {
  EXPECT_EQ(ParseEngineMode("coroutine"), EngineMode::kCoroutine);
  EXPECT_EQ(ParseEngineMode("flat"), EngineMode::kFlat);
  EXPECT_STREQ(EngineModeName(EngineMode::kCoroutine), "coroutine");
  EXPECT_STREQ(EngineModeName(EngineMode::kFlat), "flat");
  EXPECT_THROW(ParseEngineMode("warp"), std::invalid_argument);
}

struct NoopFlatProgram final : FlatProgram {
  Round Start(NodeIndex, FlatEnv&, SendBatch&) override { return kFlatDone; }
  Round Step(NodeIndex, Round, FlatEnv&, const InboxBatch&,
             SendBatch&) override {
    return kFlatDone;
  }
};

TEST(FlatEngineOptionsTest, EngineAndOverloadMustAgree) {
  // kFlat steps FlatPrograms only; kCoroutine (the Scheduler) runs both
  // kinds, FlatPrograms through FlatRuntime.
  Xoshiro256 rng(78);
  const auto g = MakeRing(4, rng);
  {
    SimulatorOptions opt;
    opt.engine = EngineMode::kFlat;
    Simulator sim(g, opt);
    EXPECT_THROW(
        sim.Run([](NodeContext&) -> Task<void> { co_return; }),
        std::logic_error);
  }
  {
    Simulator sim(g, SimulatorOptions{});
    NoopFlatProgram program;
    EXPECT_NO_THROW(sim.Run(program));
  }
}

}  // namespace
}  // namespace smst
