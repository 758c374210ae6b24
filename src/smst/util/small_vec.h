// SmallVec<T, N>: a vector with inline capacity for N elements.
//
// The simulator's per-awake message batches (sends, inboxes) almost
// always hold at most a handful of entries — node degrees in the model
// workloads are small — so storing the first N elements inside the
// object itself makes the steady-state awake path allocation-free.
// Beyond N elements SmallVec degrades gracefully to a heap buffer with
// the usual geometric growth, so correctness never depends on N.
//
// Supported surface (deliberately a subset of std::vector):
//   push_back / emplace_back / pop_back / clear / reserve / resize
//   size / empty / capacity / data / operator[] / front / back
//   begin / end (contiguous, so std::span construction works)
//   copy / move construction and assignment, operator==
//
// Growth gives the strong exception guarantee: if moving T can throw,
// elements are copied into the new buffer instead (move_if_noexcept),
// and a throwing copy leaves the original vector untouched.
//
// Layout: a 16-byte header (data pointer, 32-bit size and capacity) in
// front of the inline slots, so a batch's first elements share the
// header's cache line; a SmallVec therefore holds at most 2^32 - 1
// elements, and growing past that throws std::length_error.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace smst {

template <typename T, std::size_t N>
class SmallVec {
  static_assert(N > 0, "SmallVec needs at least one inline slot");
  static_assert(N <= std::numeric_limits<std::uint32_t>::max());
  static constexpr auto kInline = static_cast<std::uint32_t>(N);

 public:
  using value_type = T;
  using size_type = std::size_t;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() noexcept : data_(InlineData()) {}

  SmallVec(std::initializer_list<T> init) : SmallVec() {
    reserve(init.size());
    for (const T& v : init) emplace_back(v);
  }

  SmallVec(const SmallVec& other) : SmallVec() {
    reserve(other.size_);
    for (const T& v : other) emplace_back(v);
  }

  SmallVec(SmallVec&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>)
      : SmallVec() {
    StealOrMoveFrom(other);
  }

  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      SmallVec tmp(other);  // copy first: strong guarantee
      *this = std::move(tmp);
    }
    return *this;
  }

  SmallVec& operator=(SmallVec&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    if (this != &other) {
      clear();
      ReleaseHeap();
      StealOrMoveFrom(other);
    }
    return *this;
  }

  ~SmallVec() {
    DestroyAll();
    ReleaseHeap();
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return capacity_; }
  static constexpr std::size_t max_size() noexcept {
    return std::numeric_limits<std::uint32_t>::max();
  }
  bool is_inline() const noexcept { return data_ == InlineData(); }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  iterator begin() noexcept { return data_; }
  iterator end() noexcept { return data_ + size_; }
  const_iterator begin() const noexcept { return data_; }
  const_iterator end() const noexcept { return data_ + size_; }

  T& operator[](std::size_t i) {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }
  T& front() { return (*this)[0]; }
  const T& front() const { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void reserve(std::size_t want) {
    if (want > capacity_) Grow(want);
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) Grow(std::size_t{size_} + 1);
    T* slot = data_ + size_;
    std::construct_at(slot, std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }
  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  void pop_back() {
    assert(size_ > 0);
    std::destroy_at(data_ + --size_);
  }

  // Removes [first, last), shifting the tail left (erase-remove idiom
  // support). Returns the iterator following the last removed element.
  iterator erase(iterator first, iterator last) {
    assert(begin() <= first && first <= last && last <= end());
    iterator tail = std::move(last, end(), first);
    std::destroy(tail, end());
    size_ = static_cast<std::uint32_t>(tail - begin());
    return first;
  }

  // Destroys the elements but keeps the current buffer (heap capacity is
  // retained, exactly like std::vector::clear).
  void clear() noexcept {
    DestroyAll();
    size_ = 0;
  }

  void resize(std::size_t count) {
    if (count < size_) {
      std::destroy(data_ + count, data_ + size_);
      size_ = static_cast<std::uint32_t>(count);
      return;
    }
    reserve(count);
    while (size_ < count) emplace_back();
  }

  friend bool operator==(const SmallVec& a, const SmallVec& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (!(a.data_[i] == b.data_[i])) return false;
    }
    return true;
  }

 private:
  T* InlineData() noexcept {
    return std::launder(reinterpret_cast<T*>(inline_storage_));
  }
  const T* InlineData() const noexcept {
    return std::launder(reinterpret_cast<const T*>(inline_storage_));
  }

  void DestroyAll() noexcept { std::destroy(data_, data_ + size_); }

  void ReleaseHeap() noexcept {
    if (!is_inline()) {
      std::allocator<T>{}.deallocate(data_, capacity_);
      data_ = InlineData();
      capacity_ = kInline;
    }
  }

  // Precondition: *this is empty and inline. Leaves `other` empty (but
  // with its heap capacity intact when it had one — matching the moved-
  // from state of std::vector closely enough for reuse in a loop).
  void StealOrMoveFrom(SmallVec& other) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    if (!other.is_inline()) {
      data_ = other.data_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.data_ = other.InlineData();
      other.size_ = 0;
      other.capacity_ = kInline;
      return;
    }
    for (std::size_t i = 0; i < other.size_; ++i) {
      std::construct_at(data_ + i, std::move(other.data_[i]));
    }
    size_ = other.size_;
    other.DestroyAll();
    other.size_ = 0;
  }

  void Grow(std::size_t want) {
    if (want > max_size()) {
      throw std::length_error("SmallVec: more than 2^32 - 1 elements");
    }
    const std::size_t new_cap =
        std::clamp(std::size_t{capacity_} * 2, want, max_size());
    T* new_data = std::allocator<T>{}.allocate(new_cap);
    std::size_t moved = 0;
    try {
      for (; moved < size_; ++moved) {
        std::construct_at(new_data + moved,
                          std::move_if_noexcept(data_[moved]));
      }
    } catch (...) {
      std::destroy(new_data, new_data + moved);
      std::allocator<T>{}.deallocate(new_data, new_cap);
      throw;
    }
    DestroyAll();
    ReleaseHeap();
    data_ = new_data;
    capacity_ = static_cast<std::uint32_t>(new_cap);
  }

  T* data_;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = kInline;
  alignas(T) unsigned char inline_storage_[N * sizeof(T)];
};

}  // namespace smst
