// Heap-allocation accounting via replacement global operator new/delete.
//
// Every allocation through the C++ allocation functions bumps two sets of
// plain relaxed counters: a trivially-destructible thread_local block (so
// the hooks stay safe during thread teardown — no TLS guards, no
// destructors) and process-wide atomics. Counting costs two relaxed
// fetch_adds per call on top of malloc; there is no per-allocation header,
// so freed BYTES are not tracked (only free calls) — byte deltas are
// therefore "bytes requested", which is exactly the number ROADMAP item
// 2's zero-alloc session work needs to drive to zero per request.
//
// RequestScope snapshots the calling thread's counters at construction and
// publishes the delta (allocs/bytes) with the flight record, which is how
// `apds_report` surfaces per-request allocation counts. The hooks are always compiled in (the
// delta is two loads); there is no flag to disable them.
//
// The replacement functions live in alloc_stats.cpp, the same translation
// unit as these accessors, so any binary that links an accessor (flight
// recorder does) pulls the replacements out of the archive with it.
#pragma once

#include <cstdint>

namespace apds::obs {

/// Monotonic allocation counters (never decremented; diff two snapshots).
struct AllocCounters {
  std::uint64_t allocs = 0;  ///< operator new calls (all variants)
  std::uint64_t frees = 0;   ///< operator delete calls (all variants)
  std::uint64_t bytes = 0;   ///< bytes requested from operator new

  AllocCounters operator-(const AllocCounters& base) const {
    return {allocs - base.allocs, frees - base.frees, bytes - base.bytes};
  }
};

/// Snapshot of the calling thread's counters.
AllocCounters thread_alloc_counters();

/// Snapshot of the process-wide counters.
AllocCounters process_alloc_counters();

/// True when the replacement operators are actually linked in and
/// counting (verified by performing a heap allocation). Tests assert this;
/// a build that dropped the replacement TU would silently report 0.
bool alloc_hooks_active();

}  // namespace apds::obs
