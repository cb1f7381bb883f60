// Planned memory arenas for the inference hot path.
//
// The zero-alloc story has two halves:
//  * ArenaPlanner + Arena: an InferenceSession walks its layer sequence at
//    load time, reserves every intermediate buffer's bytes through a
//    planner (offset assignment with lifetime overlap via mark/rewind), and
//    backs the plan with one contiguous aligned allocation per
//    (session, thread). Steady-state propagate then only hands out
//    pointers into that block — zero heap traffic.
//  * ScratchArena + thread_scratch(): the non-session Matrix-level
//    moment_linear overloads (per-layer conv/RNN and test callers) still
//    need somewhere to put their two GEMM inputs. They carve slices out of
//    one per-thread grow-on-demand byte buffer instead of ad-hoc
//    `thread_local` scratch. It allocates only on growth, so warmed-up
//    calls stay allocation-stable.
//
// This TU is the single sanctioned home for thread_local scratch state in
// src/core/ and src/tensor/ — the apds_lint rule `hot-path-thread-local`
// flags it anywhere else.
//
// Footprint is observable: the registry gauges `arena.bytes_planned` (sum
// of live arena bytes across the process) and `arena.bytes_peak` (high
// water of that sum) update on every arena allocate/release.
#pragma once

#include <cstddef>
#include <cstdint>

namespace apds {

/// Every arena slice starts on a 64-byte boundary: cache-line alignment for
/// the kernel tiles, and wide enough for any current vector ISA.
inline constexpr std::size_t kArenaAlign = 64;

/// `bytes` rounded up to the arena alignment.
constexpr std::size_t arena_round(std::size_t bytes) {
  return (bytes + kArenaAlign - 1) & ~(kArenaAlign - 1);
}

/// Offset assigner for an arena layout. reserve() hands out aligned,
/// non-overlapping offsets; mark()/rewind() let a planner reuse the region
/// occupied by buffers whose lifetime has ended (ping-pong layer buffers).
/// planned_bytes() is the high-water mark — the arena size to back.
class ArenaPlanner {
 public:
  /// Reserve `bytes` (rounded up to kArenaAlign); returns the slice offset.
  std::size_t reserve(std::size_t bytes) {
    const std::size_t off = cur_;
    cur_ += arena_round(bytes);
    if (cur_ > peak_) peak_ = cur_;
    return off;
  }

  /// Current watermark, for a later rewind().
  std::size_t mark() const { return cur_; }

  /// Roll back to a mark: everything reserved after it is dead and its
  /// bytes may be re-reserved for buffers with a disjoint lifetime.
  void rewind(std::size_t m) { cur_ = m; }

  /// High-water bytes over all reserve() calls so far.
  std::size_t planned_bytes() const { return peak_; }

 private:
  std::size_t cur_ = 0;
  std::size_t peak_ = 0;
};

/// One contiguous kArenaAlign-aligned allocation that offsets from an
/// ArenaPlanner index into. (Re)allocate at plan time; at<T>() on the hot
/// path is pointer arithmetic only.
class Arena {
 public:
  Arena() = default;
  ~Arena() { release(); }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Back the arena with `bytes` (no-op when already at least that large).
  /// Contents are unspecified afterwards. Updates the process gauges.
  void allocate(std::size_t bytes);

  /// Drop the backing allocation (trim path). Updates the process gauges.
  void release();

  std::size_t capacity() const { return bytes_; }
  std::byte* data() { return data_; }

  /// Pointer to the slice at a planner-assigned offset.
  template <typename T>
  T* at(std::size_t offset) {
    return reinterpret_cast<T*>(data_ + offset);
  }

 private:
  std::byte* data_ = nullptr;
  std::size_t bytes_ = 0;
};

/// Grow-on-demand scratch for the non-session moment_linear overloads: one
/// untyped per-thread buffer both precisions share, so mixed-precision call
/// patterns reuse one block instead of growing one cache per scalar type.
class ScratchArena {
 public:
  /// Buffer of at least `bytes`, kArenaAlign-aligned. Allocates only when
  /// growing past the current capacity; contents are unspecified.
  std::byte* require(std::size_t bytes) {
    arena_.allocate(bytes);
    return arena_.data();
  }

  std::size_t capacity() const { return arena_.capacity(); }

  /// Release the buffer (next require() reallocates).
  void trim() { arena_.release(); }

 private:
  Arena arena_;
};

/// The calling thread's scratch arena for non-session entry points.
ScratchArena& thread_scratch();

/// Process-unique id for an arena-owning object (an InferenceSession).
/// Monotonic and never reused, so a stale per-thread cache entry from a
/// destroyed owner can never alias a live one.
std::uint64_t new_arena_owner_id();

/// Per-thread owner -> arena pointer cache. Owner ids are never reused,
/// so an entry left by a destroyed session is never looked up again.
/// Lookup on the hot path is a hash-map hit: no allocation.
void* thread_arena_lookup(std::uint64_t owner);
void thread_arena_bind(std::uint64_t owner, void* arena);

/// Live / high-water arena bytes across the process (the gauge values).
std::uint64_t arena_live_bytes();
std::uint64_t arena_peak_bytes();

}  // namespace apds
