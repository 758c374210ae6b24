// Size-bucketed recycling pool for coroutine frames.
//
// Every Task<T> coroutine allocates one frame. Library code awaits no
// sub-tasks (the MST programs and the toolbox are flat state machines),
// so a coroutine program (a user NodeProgram run through
// CoroutineProgram) allocates one frame per node per run, in a handful
// of distinct sizes. This pool intercepts Task's promise-level
// operator new/delete and recycles freed frames through per-size free
// lists, so repeated runs in one process reuse the frames of earlier
// runs instead of returning their memory to the OS and faulting it
// back in.
//
// Threading design (deliberate, verified by the TSan CI job's
// oversubscribed parallel-runner sweep): the arena is *thread-local*.
// Each worker thread owns a private set of free lists and a private
// bump region, so there is no synchronization on the hot path and no
// false sharing between workers. Fresh blocks are carved from large
// process-lifetime slabs rather than allocated one by one — per-frame
// heap allocation grows a worker thread's malloc arena in syscall-sized
// steps, which is ruinously slow on sandboxed kernels (see the note in
// frame_pool.cpp). Because slabs never die, a frame may legally outlive
// the thread that allocated it: the sharded engine's workers spawn
// frames that the main thread releases at teardown, and the block is
// then recycled into the *freeing* thread's arena — which is why the
// sharded engine tears shards down on per-shard reaper threads rather
// than the main thread. Exiting threads donate their free lists (and
// slab remainder) to a mutex-protected registry; later threads adopt
// one donated list per size class, so K symmetric donors feed the next
// run's K workers evenly, and churning workers through the parallel
// runner recycles blocks instead of accreting dead arenas.
//
// Build the library with -DSMST_NO_FRAME_POOL (CMake option
// SMST_NO_FRAME_POOL) to bypass the pool entirely: frames then go
// straight to global operator new/delete, which is what you want when
// hunting leaks or use-after-free on coroutine frames with
// ASan/Valgrind, since pooling otherwise masks both.
#pragma once

#include <cstddef>
#include <cstdint>

namespace smst {

// Allocates a frame of `bytes` bytes (pool fast path for small frames,
// global operator new beyond the pooled size range).
void* FrameAllocate(std::size_t bytes);

// Returns a frame previously obtained from FrameAllocate. `bytes` must
// be the allocation size (coroutine deallocation is sized, so the
// bucket is recomputed instead of stored per block).
void FrameDeallocate(void* p, std::size_t bytes) noexcept;

// Introspection for tests and benches: counters for the calling
// thread's arena only.
struct FramePoolStats {
  std::uint64_t pool_hits = 0;     // served from a free list
  std::uint64_t fresh_blocks = 0;  // pooled size class, new block
  std::uint64_t oversized = 0;     // larger than any bucket
};
FramePoolStats GetFramePoolStats();

}  // namespace smst
