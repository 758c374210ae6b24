// CONGEST messages.
//
// The model allows O(log n)-bit messages per edge per round. We represent
// a message as a small tagged record (a type tag plus three 64-bit
// fields); BitSize() reports the information content actually used so
// tests can assert the O(log n) budget. Field values are IDs, levels,
// weights, counts — all poly(n), i.e. O(log n) bits each.
//
// Layout (DESIGN.md §9). The tag is declared after the three fields, so a
// Message holds 26 bytes of data in 32; the wrappers below place their
// port in those 6 tail bytes ([[no_unique_address]]), so a queued or
// received message is 32 bytes, not 40, and a batch of four is 144. The
// compiler's own copies of a Message subobject leave that tail alone;
// nothing may memcpy sizeof(Message) bytes over an InMessage's or
// OutMessage's `msg`, which would overwrite its port.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "smst/util/small_vec.h"

namespace smst {

// Sentinel weight values used by the deterministic algorithm's validity
// echo (the paper's ±infinity). They sit outside the generator weight
// range, and compare correctly as uint64s.
inline constexpr std::uint64_t kMinusInfinity = 0;
inline constexpr std::uint64_t kPlusInfinity = ~std::uint64_t{0};

struct Message {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint16_t type = 0;  // algorithm-defined tag

  Message() = default;
  // Positional, tag first: Message{type, a, b, c}. (Declaring a
  // constructor also makes the tail padding reusable by the wrappers.)
  explicit constexpr Message(std::uint16_t tag, std::uint64_t first = 0,
                             std::uint64_t second = 0,
                             std::uint64_t third = 0) noexcept
      : a(first), b(second), c(third), type(tag) {}

  // Bits needed to encode this message: tag byte + the occupied widths.
  // (An exact wire format would add field delimiters; this is the
  // standard information-theoretic accounting used for CONGEST.)
  std::uint32_t BitSize() const {
    auto width = [](std::uint64_t v) -> std::uint32_t {
      return v == 0 ? 1u : static_cast<std::uint32_t>(std::bit_width(v));
    };
    return 8u + width(a) + width(b) + width(c);
  }

  friend bool operator==(const Message&, const Message&) = default;
};

// A message queued for sending, addressed by local port number (CONGEST
// nodes address neighbors only through ports).
struct OutMessage {
  [[no_unique_address]] Message msg;
  std::uint32_t port = 0;

  OutMessage() = default;
  constexpr OutMessage(std::uint32_t p, const Message& m) noexcept
      : msg(m), port(p) {}
};

// A received message, tagged with the local port it arrived on.
struct InMessage {
  [[no_unique_address]] Message msg;
  std::uint32_t port = 0;

  InMessage() = default;
  constexpr InMessage(std::uint32_t p, const Message& m) noexcept
      : msg(m), port(p) {}
};

static_assert(sizeof(Message) == 32);
static_assert(sizeof(OutMessage) == 32 && sizeof(InMessage) == 32,
              "the port must sit in Message's tail padding");
static_assert(std::is_trivially_copyable_v<OutMessage> &&
              std::is_trivially_copyable_v<InMessage>);

// The batches a coroutine program builds and receives (runtime/node.h).
// Typical degrees in the model workloads are small, so batches of up to
// kInlineMessageCapacity messages live inside the coroutine frame and
// never touch the heap; larger batches (high-degree nodes) fall back to a
// heap buffer transparently. The engine itself keeps messages in lanes
// sized by degree (runtime/lane.h), not in batches.
inline constexpr std::size_t kInlineMessageCapacity = 4;
using SendBatch = SmallVec<OutMessage, kInlineMessageCapacity>;
using InboxBatch = SmallVec<InMessage, kInlineMessageCapacity>;
static_assert(sizeof(SendBatch) == 144 && sizeof(InboxBatch) == 144);

}  // namespace smst
