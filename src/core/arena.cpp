#include "core/arena.h"

#include <atomic>
// apds-lint: allow(naked-new) — <new> header for std::align_val_t
#include <new>
#include <unordered_map>

#include "obs/metrics.h"

namespace apds {

namespace {
std::atomic<std::uint64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_peak_bytes{0};

void publish_gauges() {
  const std::uint64_t live = g_live_bytes.load(std::memory_order_relaxed);
  std::uint64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, live,
                                             std::memory_order_relaxed)) {
  }
  peak = g_peak_bytes.load(std::memory_order_relaxed);
  // Name lookups allocate on first use only; arena (re)allocation is a
  // plan-time event, never part of steady-state propagate.
  MetricsRegistry& reg = MetricsRegistry::instance();
  reg.gauge("arena.bytes_planned").set(static_cast<double>(live));
  reg.gauge("arena.bytes_peak").set(static_cast<double>(peak));
}
}  // namespace

void Arena::allocate(std::size_t bytes) {
  if (bytes <= bytes_) return;
  release();
  data_ = static_cast<std::byte*>(
      ::operator new(bytes, std::align_val_t(kArenaAlign)));
  bytes_ = bytes;
  g_live_bytes.fetch_add(bytes_, std::memory_order_relaxed);
  publish_gauges();
}

void Arena::release() {
  if (!data_) return;
  ::operator delete(data_, std::align_val_t(kArenaAlign));
  data_ = nullptr;
  g_live_bytes.fetch_sub(bytes_, std::memory_order_relaxed);
  bytes_ = 0;
  publish_gauges();
}

std::uint64_t arena_live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

std::uint64_t arena_peak_bytes() {
  return g_peak_bytes.load(std::memory_order_relaxed);
}

namespace {
// The sanctioned thread_local scratch state (see header). apds_lint's
// hot-path-thread-local rule exempts exactly this TU.
thread_local ScratchArena tl_scratch;
thread_local std::unordered_map<std::uint64_t, void*> tl_session_arenas;
}  // namespace

ScratchArena& thread_scratch() { return tl_scratch; }

std::uint64_t new_arena_owner_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void* thread_arena_lookup(std::uint64_t owner) {
  const auto it = tl_session_arenas.find(owner);
  return it == tl_session_arenas.end() ? nullptr : it->second;
}

void thread_arena_bind(std::uint64_t owner, void* arena) {
  tl_session_arenas[owner] = arena;
}

}  // namespace apds
