// Unit tests for the GHS-engine internals (detail.h): local MOE
// candidate selection under both rules, and outgoing-edge lookup.
#include <gtest/gtest.h>

#include "smst/graph/graph.h"
#include "smst/mst/detail.h"

namespace smst {
namespace {

WeightedGraph Diamond() {
  // 0-1 (w 10), 0-2 (w 20), 1-3 (w 30), 2-3 (w 5)
  GraphBuilder b(4);
  b.AddEdge(0, 1, 10).AddEdge(0, 2, 20).AddEdge(1, 3, 30).AddEdge(2, 3, 5);
  return std::move(b).Build();
}

TEST(DetailTest, LocalMoeMinWeightSkipsIntraFragmentEdges) {
  auto g = Diamond();
  const FlatNodeRef node{&g, 0};
  LdtState ldt = LdtState::Singleton(node.Id());
  // Node 0's ports: to 1 (w10), to 2 (w20). Same fragment as node 1.
  std::vector<NodeId> nbr_frag{ldt.fragment_id, 99};
  auto item = detail::LocalMoe(node, ldt, nbr_frag,
                               detail::SelectionRule::kMinWeight);
  EXPECT_EQ(item.key, 20u);
  EXPECT_EQ(item.b, 20u);  // b always carries the weight
}

TEST(DetailTest, LocalMoeAbsentWhenAllNeighborsInternal) {
  auto g = Diamond();
  const FlatNodeRef node{&g, 0};
  LdtState ldt = LdtState::Singleton(node.Id());
  std::vector<NodeId> nbr_frag{ldt.fragment_id, ldt.fragment_id};
  auto item = detail::LocalMoe(node, ldt, nbr_frag,
                               detail::SelectionRule::kMinWeight);
  EXPECT_TRUE(item.Absent());
}

TEST(DetailTest, LocalMoeMinNeighborIdPrefersSmallFragment) {
  auto g = Diamond();
  const FlatNodeRef node{&g, 0};
  LdtState ldt = LdtState::Singleton(node.Id());
  // Heavier edge leads to the smaller fragment ID: the BM rule picks it.
  std::vector<NodeId> nbr_frag{50, 7};
  auto item = detail::LocalMoe(node, ldt, nbr_frag,
                               detail::SelectionRule::kMinNeighborId);
  EXPECT_EQ(item.key, 7u);
  EXPECT_EQ(item.b, 20u);
}

TEST(DetailTest, PortOfOutgoingWeightFindsOnlyOutgoingEdges) {
  auto g = Diamond();
  const FlatNodeRef node{&g, 0};
  LdtState ldt = LdtState::Singleton(node.Id());
  std::vector<NodeId> nbr_frag{ldt.fragment_id, 99};
  // Weight 10 exists but is intra-fragment -> not found.
  EXPECT_EQ(detail::PortOfOutgoingWeight(node, ldt, nbr_frag, 10), kNoPort);
  EXPECT_EQ(detail::PortOfOutgoingWeight(node, ldt, nbr_frag, 20), 1u);
  EXPECT_EQ(detail::PortOfOutgoingWeight(node, ldt, nbr_frag, 77), kNoPort);
}

}  // namespace
}  // namespace smst
