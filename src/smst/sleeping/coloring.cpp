#include "smst/sleeping/coloring.h"

#include <algorithm>
#include <array>
#include <bit>
#include <set>
#include <stdexcept>
#include <string>

#include "smst/faults/run_outcome.h"
#include "smst/runtime/flat/driver.h"
#include "smst/sleeping/flat_procedures.h"

namespace smst {

FragColor ColoringGreedyChoice(
    std::span<const std::pair<NodeId, FragColor>> taken) {
  for (FragColor c : {FragColor::kBlue, FragColor::kRed, FragColor::kOrange,
                      FragColor::kBlack, FragColor::kGreen}) {
    bool used = false;
    for (const auto& [id, color] : taken) used |= color == c;
    if (!used) return c;
  }
  // Max degree of H is 4, so one of 5 colors is always free.
  throw std::logic_error("FastAwakeColoring: palette exhausted (degree > 4?)");
}

FragColor ColoringCheckedColor(std::uint64_t raw) {
  if (raw < 1 || raw > 5) {
    throw std::runtime_error("FastAwakeColoring: invalid color value " +
                             std::to_string(raw));
  }
  return static_cast<FragColor>(raw);
}

// ======================================================================
// Corollary 1: log* coloring (see header for the pipeline overview).
// ======================================================================

namespace {

constexpr std::uint16_t kTagXchg = 63;      // Side announce: a=payload
constexpr std::uint16_t kTagXchgUp = 64;    // gather: key=nbr index, b=value
constexpr std::uint16_t kTagForest = 65;    // a=edge weight, b=forest index

// One simultaneous "announce to H-neighbors + make it fragment-wide"
// exchange: 1 Side block + 4 x (Upcast-Min + Fragment-Broadcast) blocks.
constexpr std::uint64_t kExchangeBlocks = 9;

// Retire combined colors 80..5 one class per step.
constexpr std::uint32_t kReductionSteps = 81 - 5;

// The first entry of `heard` (in key order) not yet gathered, as an
// Upcast-Min offer; absent when every entry is done.
template <typename Key, typename Value>
UpcastItem FirstUndone(const std::map<Key, Value>& heard,
                       const std::set<Key>& done) {
  for (const auto& [key, value] : heard) {
    if (!done.count(key)) return UpcastItem{key, value, 0};
  }
  return UpcastItem{};
}

std::uint32_t CombineColors(const std::array<std::uint64_t, 4>& c) {
  return static_cast<std::uint32_t>(c[0] + 3 * c[1] + 9 * c[2] + 27 * c[3]);
}

std::uint64_t CvStep(std::uint64_t own, std::uint64_t parent) {
  if (own == parent) {
    throw std::logic_error("LogStarColoring: equal colors across an edge");
  }
  const std::uint32_t i =
      static_cast<std::uint32_t>(std::countr_zero(own ^ parent));
  return 2ull * i + ((own >> i) & 1);
}

std::uint64_t Pack4(const std::array<std::uint64_t, 4>& c) {
  // Values wider than a 16-bit lane would silently corrupt their left
  // neighbor. Coordinates here are <= 95 after the first CV step (CvStep
  // of two < 2^48 colors yields 2i+b <= 95), but guard the boundary: the
  // first exchange must never pack a raw fragment ID.
  for (std::uint64_t v : c) {
    if (v >> 16 != 0) {
      throw std::logic_error("Pack4: value exceeds the 16-bit lane budget");
    }
  }
  return c[0] | (c[1] << 16) | (c[2] << 32) | (c[3] << 48);
}
std::array<std::uint64_t, 4> Unpack4(std::uint64_t v) {
  return {v & 0xffff, (v >> 16) & 0xffff, (v >> 32) & 0xffff,
          (v >> 48) & 0xffff};
}

}  // namespace

std::uint32_t LogStarCvIterations(NodeId max_id) {
  std::uint32_t t = 0;
  std::uint64_t bound = max_id;  // colors start as fragment IDs <= N
  while (bound > 5) {
    bound = 2 * (std::bit_width(bound) - 1) + 1;
    ++t;
  }
  return std::max<std::uint32_t>(t, 1);
}

std::uint64_t LogStarColoringBlocks(std::size_t /*n*/, NodeId max_id) {
  // orientation + t* CV exchanges + 6 GPS exchanges + 76 reduction steps.
  return kExchangeBlocks *
         (1ull + LogStarCvIterations(max_id) + 6 + kReductionSteps);
}

// --- ExchangeValues ------------------------------------------------------

Round FlatExchange::Begin(const FlatNodeRef& node, const LdtState& l,
                          BlockCursor& c, std::span<const NodeId> sorted_ids,
                          std::span<const HPort> h_ports_in,
                          std::uint64_t value, bool announce_in,
                          SendLane& sends) {
  ldt = &l;
  cursor = &c;
  sorted_nbr_ids = sorted_ids;
  h_ports = h_ports_in;
  own_value = value;
  announce = announce_in;
  pc = 0;
  return Resume(node, kEmptyInbox, sends);
}

Round FlatExchange::Resume(const FlatNodeRef& node,
                           std::span<const InMessage> inbox,
                           SendLane& sends) {
  switch (pc) {
    default:
      throw std::logic_error("flat program: corrupt pc");
    case 0:
      // Side: announce on the boundary edges.
      if (announce) {
        for (const HPort& hp : h_ports) {
          sends.push_back({hp.port, Message{kTagXchg, own_value, 0, 0}});
        }
      }
      SMST_FLAT_AWAKE(*this, TransmissionSchedule(cursor->TakeBlock(), ldt->level, node.NumNodesKnown()).side);
      heard.clear();
      for (const InMessage& m : inbox) {
        if (m.msg.type != kTagXchg) continue;
        for (const HPort& hp : h_ports) {
          if (hp.port == m.port) {
            const auto it = std::lower_bound(sorted_nbr_ids.begin(),
                                             sorted_nbr_ids.end(),
                                             hp.neighbor_frag);
            heard[static_cast<std::uint64_t>(it - sorted_nbr_ids.begin())] =
                m.msg.a;
          }
        }
      }
      // Four gather rounds make all heard values fragment-wide.
      result.clear();
      done_indices.clear();
      for (k = 0; k < 4; ++k) {
        SMST_FLAT_SUB(*this, umin, umin.Begin(node, *ldt, cursor->TakeBlock(), FirstUndone(heard, done_indices), sends));
        SMST_FLAT_SUB(*this, bcast, bcast.Begin(node, *ldt, cursor->TakeBlock(), Message{kTagXchgUp, umin.best.key, umin.best.b, 0}, sends));
        if (bcast.msg.a != kPlusInfinity) {
          if (bcast.msg.a >= sorted_nbr_ids.size()) {
            // Only a foreign message (a fault effect) carries an index
            // past the fragment's neighbor list.
            throw ProtocolStallError(
                "ExchangeValues: node " + std::to_string(node.Id()) +
                " gathered neighbor index " + std::to_string(bcast.msg.a) +
                " of " + std::to_string(sorted_nbr_ids.size()));
          }
          done_indices.insert(bcast.msg.a);
          result[sorted_nbr_ids[bcast.msg.a]] = bcast.msg.b;
        }
      }
      return kFlatDone;
  }
}

// --- LogStarColoring -----------------------------------------------------

Round FlatLogStarColoring::Begin(const FlatNodeRef& node, const LdtState& l,
                                 BlockCursor& c,
                                 std::span<const NbrEntry> nbr_in,
                                 std::span<const HPort> h_ports_in,
                                 std::uint32_t iters, SendLane& sends) {
  ldt = &l;
  cursor = &c;
  nbr = nbr_in;
  h_ports = h_ports_in;
  cv_iters = iters;
  pc = 0;
  return Resume(node, kEmptyInbox, sends);
}

Round FlatLogStarColoring::Resume(const FlatNodeRef& node,
                                  std::span<const InMessage> inbox,
                                  SendLane& sends) {
  switch (pc) {
    default:
      throw std::logic_error("flat program: corrupt pc");
    case 0:
      if (nbr.empty()) {
        throw std::logic_error(
            "LogStarColoring: isolated fragments skip coloring");
      }
      if (node.MaxIdKnown() >= (NodeId{1} << 48)) {
        throw std::invalid_argument("LogStarColoring: needs N < 2^48");
      }
      own_frag = ldt->fragment_id;

      // Fragment-wide consistent views derived from nbr (identical at
      // every node of the fragment).
      sorted_nbr_ids.clear();
      for (const NbrEntry& e : nbr) sorted_nbr_ids.push_back(e.frag_id);
      std::sort(sorted_nbr_ids.begin(), sorted_nbr_ids.end());
      sorted_nbr_ids.erase(
          std::unique(sorted_nbr_ids.begin(), sorted_nbr_ids.end()),
          sorted_nbr_ids.end());

      // Out-edges (toward larger fragment IDs), sorted: index = forest.
      out_edges.clear();
      for (const NbrEntry& e : nbr) {
        if (e.frag_id > own_frag) out_edges.push_back(e);
      }
      std::sort(out_edges.begin(), out_edges.end(),
                [](const NbrEntry& a, const NbrEntry& b) {
                  return a.frag_id != b.frag_id ? a.frag_id < b.frag_id
                                                : a.weight < b.weight;
                });

      // --- orientation exchange: tell each in-neighbor which forest we
      // put the shared edge in; learn the same for our in-edges. -------
      for (const HPort& hp : h_ports) {
        for (std::uint32_t f = 0; f < out_edges.size(); ++f) {
          if (out_edges[f].frag_id == hp.neighbor_frag &&
              node.WeightAtPort(hp.port) == out_edges[f].weight) {
            sends.push_back(
                {hp.port, Message{kTagForest, out_edges[f].weight, f, 0}});
          }
        }
      }
      SMST_FLAT_AWAKE(*this, TransmissionSchedule(cursor->TakeBlock(), ldt->level, node.NumNodesKnown()).side);
      heard_forest.clear();
      for (const InMessage& m : inbox) {
        if (m.msg.type == kTagForest) {
          heard_forest[m.msg.a] = static_cast<std::uint32_t>(m.msg.b);
        }
      }
      done_forest.clear();
      in_forest.clear();
      for (k = 0; k < 4; ++k) {
        SMST_FLAT_SUB(*this, umin, umin.Begin(node, *ldt, cursor->TakeBlock(), FirstUndone(heard_forest, done_forest), sends));
        SMST_FLAT_SUB(*this, bcast, bcast.Begin(node, *ldt, cursor->TakeBlock(), Message{kTagForest, umin.best.key, umin.best.b, 0}, sends));
        if (bcast.msg.a != kPlusInfinity) {
          done_forest.insert(bcast.msg.a);
          in_forest[bcast.msg.a] = static_cast<std::uint32_t>(bcast.msg.b);
        }
      }
      // Children per forest: the in-edges' source fragments, by the
      // forest index the *source* assigned.
      for (std::vector<NodeId>& children : forest_children) children.clear();
      for (const NbrEntry& e : nbr) {
        if (e.frag_id >= own_frag) continue;
        if (auto it = in_forest.find(e.weight); it != in_forest.end()) {
          forest_children[it->second % 4].push_back(e.frag_id);
        }
      }

      // --- Cole-Vishkin on all four forests in parallel ----------------
      coord.fill(own_frag);
      nbr_coord.clear();
      for (NodeId id : sorted_nbr_ids) nbr_coord[id].fill(id);
      for (t = 0; t < cv_iters; ++t) {
        for (std::uint32_t f = 0; f < 4; ++f) {
          if (f < out_edges.size()) {
            coord[f] = CvStep(coord[f], nbr_coord[out_edges[f].frag_id][f]);
          } else {
            coord[f] = coord[f] & 1;  // forest root: keep bit 0
          }
        }
        SMST_FLAT_SUB(*this, xchg, xchg.Begin(node, *ldt, *cursor, sorted_nbr_ids, h_ports, Pack4(coord), true, sends));
        for (const auto& [id, packed] : xchg.result) {
          nbr_coord[id] = Unpack4(packed);
        }
      }

      // --- Goldberg-Plotkin-Shannon: 6 colors -> 3 per forest ----------
      for (retire = 5; retire >= 3; --retire) {
        {
          // Shift-down: adopt the parent's color; roots flip to stay
          // proper.
          std::array<std::uint64_t, 4> next = coord;
          for (std::uint32_t f = 0; f < 4; ++f) {
            if (f < out_edges.size()) {
              next[f] = nbr_coord[out_edges[f].frag_id][f];
            } else {
              next[f] = coord[f] == 0 ? 1 : 0;
            }
          }
          coord = next;
        }
        SMST_FLAT_SUB(*this, xchg, xchg.Begin(node, *ldt, *cursor, sorted_nbr_ids, h_ports, Pack4(coord), true, sends));
        for (const auto& [id, packed] : xchg.result) {
          nbr_coord[id] = Unpack4(packed);
        }

        // Recolor the retiring class into {0,1,2}: forbidden are the
        // parent's color and the children's (uniform after shift-down)
        // color.
        for (std::uint32_t f = 0; f < 4; ++f) {
          if (coord[f] != retire) continue;
          std::set<std::uint64_t> forbidden;
          if (f < out_edges.size()) {
            forbidden.insert(nbr_coord[out_edges[f].frag_id][f]);
          }
          for (NodeId child : forest_children[f]) {
            forbidden.insert(nbr_coord[child][f]);
          }
          for (std::uint64_t c = 0; c <= 2; ++c) {
            if (!forbidden.count(c)) {
              coord[f] = c;
              break;
            }
          }
        }
        SMST_FLAT_SUB(*this, xchg, xchg.Begin(node, *ldt, *cursor, sorted_nbr_ids, h_ports, Pack4(coord), true, sends));
        for (const auto& [id, packed] : xchg.result) {
          nbr_coord[id] = Unpack4(packed);
        }
      }

      // --- combine to 3^4 = 81 colors, then retire classes 80..5 -------
      result.my_color = CombineColors(coord);
      result.neighbor_colors.clear();
      for (const auto& [id, c] : nbr_coord) {
        result.neighbor_colors[id] = CombineColors(c);
      }
      for (step = 0; step < kReductionSteps; ++step) {
        {
          const std::uint32_t retiring = 80 - step;
          announcer = result.my_color == retiring;
          listener = false;
          for (const auto& [id, c] : result.neighbor_colors) {
            listener |= c == retiring;
          }
        }
        if (!announcer && !listener) {
          cursor->SkipBlocks(kExchangeBlocks);
          continue;
        }
        if (announcer) {
          std::set<std::uint32_t> used;
          for (const auto& [id, c] : result.neighbor_colors) used.insert(c);
          for (std::uint32_t c = 0; c <= 4; ++c) {
            if (!used.count(c)) {
              result.my_color = c;
              break;
            }
          }
        }
        // Only the retiring class announces; every neighbor of an
        // announcer is a listener (it tracked the announcer's color), so
        // nothing is ever sent to a sleeping fragment.
        SMST_FLAT_SUB(*this, xchg, xchg.Begin(node, *ldt, *cursor, sorted_nbr_ids, h_ports, result.my_color, announcer, sends));
        for (const auto& [id, value] : xchg.result) {
          result.neighbor_colors[id] = static_cast<std::uint32_t>(value);
        }
      }
      return kFlatDone;
  }
}

}  // namespace smst
