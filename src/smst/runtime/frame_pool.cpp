// Per-thread free lists for coroutine frames (task.h).
//
// Library code awaits no sub-tasks (the MST programs and the toolbox are
// flat state machines), so a coroutine program (a user NodeProgram run
// through CoroutineProgram) allocates one frame per node per run, in a
// handful of sizes. A freed frame goes onto the calling thread's list
// for its size class, and that thread's next frame of the class takes it
// back, so repeated runs on one thread reuse the frames of earlier runs
// instead of faulting fresh pages in (DESIGN.md §9). There is no lock
// and no sharing: engines free frames on the thread that allocated them
// (a sharded run's workers free their own), and a thread's lists are
// freed when it exits.
#include "smst/runtime/task.h"

#include <cstddef>
#include <new>

namespace smst::detail {

namespace {

// One free list per 16-byte size class (malloc's own chunk step), so
// rounding a frame up to its class wastes under 16 bytes. Frames above
// 8 KiB skip the lists.
constexpr std::size_t kClassBytes = 16;
constexpr std::size_t kMaxPooledBytes = 8192;
constexpr std::size_t kNumClasses = kMaxPooledBytes / kClassBytes;

struct FreeBlock {
  FreeBlock* next;
};

struct FreeLists {
  FreeBlock* heads[kNumClasses] = {};

  // Runs at thread exit. Each head is advanced as its blocks are freed,
  // so every list ends empty rather than dangling: a frame freed on this
  // thread afterwards (say, by a later thread_local destructor) joins a
  // valid list.
  ~FreeLists() {
    for (FreeBlock*& head : heads) {
      while (FreeBlock* block = head) {
        head = block->next;
        ::operator delete(block);
      }
    }
  }
};

thread_local FreeLists t_lists;

constexpr std::size_t ClassOf(std::size_t bytes) {
  return bytes == 0 ? 0 : (bytes - 1) / kClassBytes;
}

}  // namespace

void* FrameAllocate(std::size_t bytes) {
  if (bytes > kMaxPooledBytes) return ::operator new(bytes);
  const std::size_t c = ClassOf(bytes);
  FreeBlock*& head = t_lists.heads[c];
  if (FreeBlock* block = head) {
    head = block->next;
    return block;
  }
  // Every block of a class has the class's full size, so any freed
  // block can serve any later frame of that class.
  return ::operator new((c + 1) * kClassBytes);
}

void FrameDeallocate(void* p, std::size_t bytes) noexcept {
  if (bytes > kMaxPooledBytes) {
    ::operator delete(p);
    return;
  }
  FreeBlock*& head = t_lists.heads[ClassOf(bytes)];
  head = ::new (p) FreeBlock{head};
}

}  // namespace smst::detail
