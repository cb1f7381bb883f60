// Reusable worker-thread pool powering every parallel kernel in the
// inference stack (GEMM, activation moments, MCDrop sample draws, conv
// moment propagators).
//
// Design goals, in order:
//  * Determinism: parallel_for splits [begin, end) into contiguous chunks
//    whose boundaries depend only on the range size, the grain and the pool
//    width — never on scheduling. Every kernel built on it writes disjoint
//    outputs and keeps each output element's accumulation order identical
//    to the serial loop, so results are bit-identical for any thread count.
//  * Safety: exceptions thrown inside chunks are captured and the first one
//    is rethrown on the calling thread; a parallel_for issued from inside a
//    worker (nested parallelism) runs inline instead of deadlocking.
//  * Zero surprise at width 1: a pool with one thread runs everything
//    inline on the caller — the exact serial code path.
//
// The process-wide pool is lazily built on first use. Its width resolves,
// in decreasing precedence: set_global_threads(n > 0) (the benches'
// --threads flag lands here) > the APDS_THREADS environment variable >
// std::thread::hardware_concurrency().
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
// Header-only by design (see its comment): pulling it in here adds no link
// dependency on apds_obs.
#include "obs/request_context.h"

namespace apds {

/// Non-owning reference to the body of one parallel_for chunk: processes
/// indices [chunk_begin, chunk_end) and must not touch state written by
/// other chunks.
///
/// This used to be std::function, which heap-allocates at every call site
/// whose lambda captures exceed the small-buffer optimization — on the
/// inference hot path that was one hidden allocation per parallel kernel
/// invocation. A parallel_for call strictly outlives the chunk execution it
/// dispatches (the caller blocks until every chunk finished), so a borrowed
/// {context pointer, invoke thunk} pair is sufficient and allocation-free.
class RangeRef {
 public:
  RangeRef() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, RangeRef>>>
  RangeRef(const F& fn)  // NOLINT(google-explicit-constructor)
      : ctx_(&fn), invoke_([](const void* ctx, std::size_t b, std::size_t e) {
          (*static_cast<const F*>(ctx))(b, e);
        }) {}

  void operator()(std::size_t begin, std::size_t end) const {
    invoke_(ctx_, begin, end);
  }

 private:
  const void* ctx_ = nullptr;
  void (*invoke_)(const void*, std::size_t, std::size_t) = nullptr;
};

/// Fixed-width pool of persistent workers. The constructing thread is a
/// participant: a pool of width N owns N-1 OS threads and the caller of
/// parallel_for executes chunks alongside them.
class ThreadPool {
 public:
  /// Pool of `threads` participants; 0 means hardware concurrency.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Pool width including the calling thread (>= 1).
  std::size_t num_threads() const { return workers_.size() + 1; }

  /// Apply `fn` over [begin, end) in contiguous chunks of at least `grain`
  /// indices. Runs inline when the range fits a single chunk, the pool has
  /// width 1, or the caller is itself a pool worker (nested call). Blocks
  /// until every chunk finished; rethrows the first chunk exception.
  ///
  /// The calling thread's RequestContext is captured with the task and
  /// installed in every worker for the duration of its chunks, so spans and
  /// exemplars emitted inside `fn` attribute to the submitting request.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    RangeRef fn);

  /// True when the calling thread is currently executing a chunk of any
  /// ThreadPool (used to force nested calls inline).
  static bool in_worker();

 private:
  void worker_loop();
  void run_chunks(RangeRef fn, std::uint64_t generation, std::size_t begin,
                  std::size_t end, std::size_t chunk, std::size_t nchunks);

  std::vector<std::thread> workers_;

  // One parallel_for at a time; concurrent external callers queue up here.
  Mutex dispatch_mu_;

  // Task publication/completion, guarded by mu_.
  Mutex mu_;
  CondVar cv_task_;
  CondVar cv_done_;
  std::uint64_t generation_ APDS_GUARDED_BY(mu_) = 0;
  bool stop_ APDS_GUARDED_BY(mu_) = false;
  RangeRef fn_ APDS_GUARDED_BY(mu_);
  /// Submitting thread's context, for workers.
  obs::RequestContext ctx_ APDS_GUARDED_BY(mu_);
  std::size_t begin_ APDS_GUARDED_BY(mu_) = 0;
  std::size_t end_ APDS_GUARDED_BY(mu_) = 0;
  std::size_t chunk_ APDS_GUARDED_BY(mu_) = 0;
  std::size_t nchunks_ APDS_GUARDED_BY(mu_) = 0;
  /// Workers inside the current task.
  std::size_t active_workers_ APDS_GUARDED_BY(mu_) = 0;

  // Chunk claims are generation-tagged: the high 32 bits hold the low 32
  // bits of the owning task's generation_, the low 32 bits count claimed
  // chunks. A worker that slept through a whole task (and is therefore
  // invisible to the completion wait) can wake with stale geometry after a
  // newer task was published; the tag makes its claim attempt fail instead
  // of stealing the new task's chunk 0 and running it with dangling state.
  // (A worker would have to sleep through exactly a multiple of 2^32
  // dispatches for the tag to alias — not a practical concern.)
  std::atomic<std::uint64_t> task_counter_{0};
  std::atomic<std::size_t> done_chunks_{0};
  std::exception_ptr error_ APDS_GUARDED_BY(mu_);
};

/// Resolve a requested width (0 = unset) against APDS_THREADS and the
/// hardware: requested > env > hardware_concurrency, minimum 1.
std::size_t resolve_num_threads(std::size_t requested);

/// Per-worker lifecycle hooks: `on_start` runs first thing on every pool
/// worker thread, `on_exit` runs right before it returns (both may be
/// nullptr). The observability layer registers workers with the sampling
/// profiler through these without the pool linking against apds_obs.
/// Install BEFORE the first pool is built (already-running workers are not
/// revisited); hooks apply to every pool built afterwards.
void set_worker_thread_hooks(void (*on_start)(), void (*on_exit)());

/// The process-wide pool used by the parallel kernels. Built lazily.
ThreadPool& global_pool();

/// Set the process-wide pool width (0 = revert to APDS_THREADS/hardware).
/// Tears down the current pool; the next global_pool() call rebuilds it.
/// Call from a single thread while no parallel work is in flight.
void set_global_threads(std::size_t n);

/// Width of the process-wide pool (forces its construction).
std::size_t global_threads();

/// parallel_for on the process-wide pool.
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  RangeRef fn);

}  // namespace apds
