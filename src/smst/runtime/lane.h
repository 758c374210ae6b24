// Message lanes: the engine's per-node send and inbox storage.
//
// In the sleeping CONGEST model a node sends at most one message per
// incident edge in an awake round, and receives at most one per edge.
// The Scheduler therefore gives each node it owns exactly deg(v) send
// slots and deg(v) inbox slots, carved in port order out of two flat
// per-shard arrays (runtime/scheduler.h). A MessageLane is the 16-byte
// header over one node's slots: data pointer, 32-bit size, and a 32-bit
// capacity whose top bit marks a heap buffer the lane owns.
//
// A lane moves to such a buffer only when it outgrows its slots: a fault
// plan's duplicates or delayed deliveries overfill an inbox, or a program
// pushes more sends than it has ports (which the Scheduler then rejects).
// The buffer doubles on each further overflow and is kept, cleared, round
// over round, so a lane that spills allocates once per size it reaches,
// not once per round; the lane frees it when it is destroyed.
//
// SendLane is the out-parameter a FlatProgram pushes its next round's
// sends into; a program receives its inbox as a std::span over the
// inbox lane. Both hold trivially copyable messages (message.h), which a
// lane copies and drops without running constructors or destructors.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "smst/runtime/message.h"

namespace smst {

template <typename T>
class MessageLane {
  static_assert(std::is_trivially_copyable_v<T> &&
                std::is_trivially_destructible_v<T>);

 public:
  // A lane over the `count` slots at `slots`, which it does not own (no
  // slots: its first push spills).
  MessageLane(T* slots, std::size_t count) : data_(slots) {
    if (count > kMaxCapacity) {
      throw std::length_error("message lane: more than 2^31 - 1 slots");
    }
    capacity_ = static_cast<std::uint32_t>(count);
  }
  MessageLane(const MessageLane&) = delete;
  MessageLane& operator=(const MessageLane&) = delete;
  MessageLane(MessageLane&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  ~MessageLane() {
    if (OwnsBuffer()) std::allocator<T>{}.deallocate(data_, Capacity());
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return Capacity(); }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }
  T& operator[](std::size_t i) {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == Capacity()) Spill();
    T* slot = std::construct_at(data_ + size_, std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }
  void push_back(const T& v) { emplace_back(v); }

  // Drops the messages; the lane keeps its slots or its heap buffer.
  void clear() noexcept { size_ = 0; }

 private:
  // The capacity's top bit is the owner flag, so a lane holds at most
  // 2^31 - 1 messages; pushing past that throws std::length_error.
  static constexpr std::uint32_t kOwned = std::uint32_t{1} << 31;
  static constexpr std::uint32_t kMaxCapacity = kOwned - 1;

  std::uint32_t Capacity() const noexcept { return capacity_ & ~kOwned; }
  bool OwnsBuffer() const noexcept { return (capacity_ & kOwned) != 0; }

  // Moves the messages to a heap buffer twice the size (at least 4).
  [[gnu::noinline]] void Spill() {
    const std::uint32_t old_capacity = Capacity();
    if (old_capacity == kMaxCapacity) {
      throw std::length_error("message lane: more than 2^31 - 1 messages");
    }
    const std::uint32_t new_capacity = std::clamp<std::uint32_t>(
        old_capacity * 2, 4, kMaxCapacity);
    T* buffer = std::allocator<T>{}.allocate(new_capacity);
    std::uninitialized_copy_n(data_, size_, buffer);
    if (OwnsBuffer()) std::allocator<T>{}.deallocate(data_, old_capacity);
    data_ = buffer;
    capacity_ = new_capacity | kOwned;
  }

  T* data_;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = 0;
};

using SendLane = MessageLane<OutMessage>;
using InboxLane = MessageLane<InMessage>;
static_assert(sizeof(SendLane) == 16 && sizeof(InboxLane) == 16,
              "a lane is a header over its node's slots");

}  // namespace smst
