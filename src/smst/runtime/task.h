// Minimal C++20 coroutine task used to write node programs.
//
// Node programs read like the paper's pseudocode: a top-level coroutine
// per node that `co_await`s sub-procedures (themselves Task<T>) and, at
// the leaves, the scheduler's Awake awaitable. Task<T> is lazy (starts on
// first await/Start), single-consumer, move-only, and chains completion to
// its awaiter with symmetric transfer, so arbitrarily deep procedure
// nesting costs no stack.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <utility>

namespace smst {

template <typename T>
class [[nodiscard]] Task;

namespace detail {

// Coroutine frame storage: the calling thread's free list for the
// frame's size class, else operator new (frame_pool.cpp). Deallocation
// takes the size the frame was allocated with.
void* FrameAllocate(std::size_t bytes);
void FrameDeallocate(void* p, std::size_t bytes) noexcept;

// Behaviour shared by Task<T> and Task<void> promises.
struct PromiseBase {
#ifndef __SANITIZE_ADDRESS__
  // Frames are recycled through the calling thread's free lists, so a
  // repeated run reuses the frames of the last one. ASan builds use
  // plain new/delete, so ASan sees every frame.
  static void* operator new(std::size_t bytes) { return FrameAllocate(bytes); }
  static void operator delete(void* p, std::size_t bytes) noexcept {
    FrameDeallocate(p, bytes);
  }
#endif

  std::coroutine_handle<> continuation;  // resumed when this task finishes
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      // Symmetric transfer to whoever awaited us; a detached/top-level
      // task simply returns control to the resumer.
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() { exception = std::current_exception(); }
};

}  // namespace detail

template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_value(T v) { value.emplace(std::move(v)); }
  };
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  // Awaitable interface: `co_await child_task` starts the child and
  // resumes the parent when it returns.
  bool await_ready() const noexcept { return !handle_ || handle_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    handle_.promise().continuation = awaiter;
    return handle_;  // start the child now
  }
  T await_resume() {
    auto& p = handle_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
    assert(p.value.has_value());
    return std::move(*p.value);
  }

 private:
  friend class TaskRunner;
  explicit Task(Handle h) : handle_(h) {}
  void Destroy() {
    if (handle_) handle_.destroy();
    handle_ = {};
  }
  Handle handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() {}
  };
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool await_ready() const noexcept { return !handle_ || handle_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> awaiter) {
    handle_.promise().continuation = awaiter;
    return handle_;
  }
  void await_resume() {
    if (handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
  }

 private:
  friend class TaskRunner;
  explicit Task(Handle h) : handle_(h) {}
  void Destroy() {
    if (handle_) handle_.destroy();
    handle_ = {};
  }
  Handle handle_;
};

// Drives top-level (per-node) tasks from non-coroutine code: the
// CoroutineProgram adapter (node.h) Starts each program and resumes leaf
// awaitables, and Done/RethrowIfFailed observe completion.
class TaskRunner {
 public:
  TaskRunner() = default;  // no task: Done()
  explicit TaskRunner(Task<void> task) : task_(std::move(task)) {}

  // Runs the task until its first suspension (or completion).
  void Start() {
    assert(task_.handle_);
    task_.handle_.resume();
  }

  bool Done() const { return !task_.handle_ || task_.handle_.done(); }

  void RethrowIfFailed() const {
    if (task_.handle_ && task_.handle_.done() &&
        task_.handle_.promise().exception) {
      std::rethrow_exception(task_.handle_.promise().exception);
    }
  }

 private:
  Task<void> task_;
};

}  // namespace smst
