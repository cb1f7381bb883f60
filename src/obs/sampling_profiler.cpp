#include "obs/sampling_profiler.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "tensor/kernels/kernel_dispatch.h"

#if defined(__linux__)
#define APDS_SAMPLING_REAL 1
#include <cxxabi.h>
#include <execinfo.h>
#include <pthread.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>
#endif

namespace apds::obs {

namespace {

std::atomic<bool> g_running{false};
std::atomic<std::uint64_t> g_interval_us{0};

#ifdef APDS_SAMPLING_REAL

/// One thread's sampling state. Allocated on registration and deliberately
/// never freed: samples must survive the thread (the registry owns the
/// leak; reset() reclaims buffers of exited threads between runs).
struct ThreadState {
  pid_t tid = 0;
  /// The thread's CPU-time clock: its timer advances only while the thread
  /// runs, so a worker blocked in the pool's condition wait takes no
  /// samples.
  clockid_t clock = CLOCK_MONOTONIC;
  timer_t timer = {};
  bool armed = false;
  bool alive = true;  ///< thread still running (timer may be re-armed)

  // Fill-once sample buffer, single writer (this thread's handler; the
  // kernel never delivers a timer signal concurrently with itself on one
  // thread). `count` release-publishes slots; readers acquire it and only
  // read slots below — published slots are immutable.
  std::atomic<std::uint32_t> count{0};
  std::atomic<std::uint64_t> dropped{0};
  std::uint16_t depth[SamplingProfiler::kMaxSamplesPerThread] = {};
  void* frames[SamplingProfiler::kMaxSamplesPerThread *
               SamplingProfiler::kMaxFrames] = {};
};

Mutex g_registry_mu;
// Never destroyed: a function-local vector would die during static
// destruction, before LeakSanitizer's exit scan, leaving the deliberately
// leaked ThreadStates of still-running pool workers unreachable (a leak
// report) and a late signal or worker touching a destroyed vector.
std::vector<ThreadState*>& registry() {
  static auto* threads =
      new std::vector<ThreadState*>();  // apds-lint: allow(naked-new)
  return *threads;
}
thread_local ThreadState* tl_state = nullptr;

/// SIGPROF handler: async-signal-safe by construction — fixed buffers,
/// two relaxed/release atomics, errno save/restore. backtrace(3) is safe
/// here only because start() pre-loaded its libgcc initialization.
void sigprof_handler(int, siginfo_t* si, void*) {
  if (!si || si->si_code != SI_TIMER) return;
  const int saved_errno = errno;
  auto* st = static_cast<ThreadState*>(si->si_value.sival_ptr);
  if (st) {
    const std::uint32_t idx = st->count.load(std::memory_order_relaxed);
    if (idx >= SamplingProfiler::kMaxSamplesPerThread) {
      st->dropped.fetch_add(1, std::memory_order_relaxed);
    } else {
      // +2: the two leaf-most frames are this handler and the kernel's
      // signal trampoline; they are sliced off so the stored leaf is the
      // interrupted function.
      void* raw[SamplingProfiler::kMaxFrames + 2];
      int n = backtrace(raw, static_cast<int>(SamplingProfiler::kMaxFrames) + 2);
      const int skip = n > 2 ? 2 : 0;
      n -= skip;
      if (n > 0) {
        void** slot = st->frames + idx * SamplingProfiler::kMaxFrames;
        for (int i = 0; i < n; ++i) slot[i] = raw[skip + i];
        st->depth[idx] = static_cast<std::uint16_t>(n);
        st->count.store(idx + 1, std::memory_order_release);
      }
    }
  }
  errno = saved_errno;
}

bool arm_thread(ThreadState* st, std::uint64_t interval_us) {
  if (st->armed || !st->alive) return st->armed;
  struct sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_value.sival_ptr = st;
#ifdef sigev_notify_thread_id
  sev.sigev_notify_thread_id = st->tid;
#else
  sev._sigev_un._tid = st->tid;  // glibc spelling of the POSIX member
#endif
  if (timer_create(st->clock, &sev, &st->timer) != 0) {
    APDS_WARN("sampling profiler: timer_create failed for tid "
              << st->tid << ": " << std::strerror(errno));
    return false;
  }
  struct itimerspec its;
  std::memset(&its, 0, sizeof(its));
  its.it_interval.tv_sec = static_cast<time_t>(interval_us / 1000000);
  its.it_interval.tv_nsec =
      static_cast<long>((interval_us % 1000000) * 1000);
  its.it_value = its.it_interval;
  timer_settime(st->timer, 0, &its, nullptr);
  st->armed = true;
  return true;
}

void disarm_thread(ThreadState* st) {
  if (!st->armed) return;
  timer_delete(st->timer);
  st->armed = false;
}

/// Strip "module(symbol+0x..) [0x..]" down to a demangled symbol; falls
/// back to the module name or the raw address.
std::string pretty_symbol(const char* line, void* addr) {
  std::string s(line ? line : "");
  const std::size_t open = s.find('(');
  const std::size_t close = s.find_first_of("+)", open);
  if (open != std::string::npos && close != std::string::npos &&
      close > open + 1) {
    std::string mangled = s.substr(open + 1, close - open - 1);
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(mangled.c_str(), nullptr, nullptr, &status);
    if (status == 0 && demangled) {
      std::string out(demangled);
      std::free(demangled);
      return out;
    }
    return mangled;
  }
  // No symbol: "module [addr]" — keep the module's basename.
  std::string module = open != std::string::npos ? s.substr(0, open) : s;
  const std::size_t space = module.find(' ');
  if (space != std::string::npos) module.resize(space);
  const std::size_t slash = module.rfind('/');
  if (slash != std::string::npos) module = module.substr(slash + 1);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s+%p",
                module.empty() ? "??" : module.c_str(), addr);
  return buf;
}

#endif  // APDS_SAMPLING_REAL

}  // namespace

SamplingProfiler& SamplingProfiler::instance() {
  static SamplingProfiler profiler;
  return profiler;
}

bool SamplingProfiler::running() const {
  return g_running.load(std::memory_order_relaxed);
}

std::uint64_t SamplingProfiler::interval_us() const {
  return g_interval_us.load(std::memory_order_relaxed);
}

#ifdef APDS_SAMPLING_REAL

bool SamplingProfiler::start(std::uint64_t interval_us) {
  if (interval_us == 0) interval_us = 1000;
  if (running()) return true;

  // Pre-load backtrace's lazy initialization (dlopens libgcc, which
  // allocates) from normal context so the signal handler never does.
  void* warm[4];
  backtrace(warm, 4);

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = sigprof_handler;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) {
    APDS_WARN("sampling profiler: sigaction(SIGPROF) failed: "
              << std::strerror(errno));
    return false;
  }

  g_interval_us.store(interval_us, std::memory_order_relaxed);
  register_current_thread();
  {
    MutexLock lock(&g_registry_mu);
    for (ThreadState* st : registry()) arm_thread(st, interval_us);
  }
  g_running.store(true, std::memory_order_relaxed);
  APDS_DEBUG("sampling profiler started (interval " << interval_us
                                                    << " us)");
  return true;
}

void SamplingProfiler::stop() {
  if (!running()) return;
  g_running.store(false, std::memory_order_relaxed);
  MutexLock lock(&g_registry_mu);
  for (ThreadState* st : registry()) disarm_thread(st);
}

void SamplingProfiler::register_current_thread() {
  if (tl_state) return;
  // Deliberately leaked: the handler may still dereference this state
  // after the thread exits, and its samples must survive for report();
  // reset() reclaims disarmed dead threads.
  auto* st = new ThreadState();  // apds-lint: allow(naked-new)
  st->tid = static_cast<pid_t>(syscall(SYS_gettid));
  // Only the thread itself can name its clock here (start() arms the
  // timers of threads registered earlier from another thread).
  if (pthread_getcpuclockid(pthread_self(), &st->clock) != 0)
    st->clock = CLOCK_MONOTONIC;
  tl_state = st;
  MutexLock lock(&g_registry_mu);
  registry().push_back(st);
  if (g_running.load(std::memory_order_relaxed))
    arm_thread(st, g_interval_us.load(std::memory_order_relaxed));
}

void SamplingProfiler::unregister_current_thread() {
  ThreadState* st = tl_state;
  if (!st) return;
  tl_state = nullptr;
  MutexLock lock(&g_registry_mu);
  disarm_thread(st);
  st->alive = false;  // samples stay in the registry for the report
}

std::uint64_t SamplingProfiler::sample_count() const {
  std::uint64_t total = 0;
  MutexLock lock(&g_registry_mu);
  for (const ThreadState* st : registry())
    total += st->count.load(std::memory_order_acquire);
  return total;
}

std::uint64_t SamplingProfiler::dropped_count() const {
  std::uint64_t total = 0;
  MutexLock lock(&g_registry_mu);
  for (const ThreadState* st : registry())
    total += st->dropped.load(std::memory_order_relaxed);
  return total;
}

SamplingProfiler::Report SamplingProfiler::report() const {
  Report rep;
  rep.interval_us = interval_us();

  // Copy out published samples under the registry lock (slots below the
  // acquired count are immutable, so plain reads are race-free).
  struct RawSample {
    const void* const* frames;
    std::size_t depth;
  };
  std::vector<RawSample> samples;
  {
    MutexLock lock(&g_registry_mu);
    for (const ThreadState* st : registry()) {
      const std::uint32_t n = st->count.load(std::memory_order_acquire);
      rep.dropped += st->dropped.load(std::memory_order_relaxed);
      if (n > 0) ++rep.threads;
      for (std::uint32_t i = 0; i < n; ++i)
        samples.push_back(
            {st->frames + i * kMaxFrames, st->depth[i]});
    }
  }
  rep.samples = samples.size();
  if (samples.empty()) return rep;

  // Symbolize each unique address once.
  std::vector<void*> unique;
  std::map<const void*, std::string> symbols;
  for (const RawSample& s : samples)
    for (std::size_t f = 0; f < s.depth; ++f)
      if (symbols.emplace(s.frames[f], std::string()).second)
        unique.push_back(const_cast<void*>(s.frames[f]));
  char** lines = backtrace_symbols(unique.data(),
                                   static_cast<int>(unique.size()));
  for (std::size_t i = 0; i < unique.size(); ++i)
    symbols[unique[i]] =
        pretty_symbol(lines ? lines[i] : nullptr, unique[i]);
  std::free(lines);

  std::map<std::string, std::uint64_t> folded;
  std::map<std::string, std::uint64_t> self;
  std::string stack;
  for (const RawSample& s : samples) {
    self[symbols[s.frames[0]]] += 1;  // frame 0 = interrupted function
    stack.clear();
    for (std::size_t f = s.depth; f-- > 0;) {  // root first
      if (!stack.empty()) stack += ';';
      stack += symbols[s.frames[f]];
    }
    folded[stack] += 1;
  }

  for (auto& [symbol, count] : self)
    rep.self_time.push_back(
        {symbol, count,
         static_cast<double>(count) / static_cast<double>(rep.samples)});
  std::sort(rep.self_time.begin(), rep.self_time.end(),
            [](const SelfTimeEntry& a, const SelfTimeEntry& b) {
              return a.samples != b.samples ? a.samples > b.samples
                                            : a.symbol < b.symbol;
            });
  rep.folded.assign(folded.begin(), folded.end());
  std::sort(rep.folded.begin(), rep.folded.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second > b.second
                                          : a.first < b.first;
            });
  return rep;
}

void SamplingProfiler::reset() {
  MutexLock lock(&g_registry_mu);
  auto& threads = registry();
  for (std::size_t i = 0; i < threads.size();) {
    ThreadState* st = threads[i];
    if (!st->alive && !st->armed) {
      delete st;  // apds-lint: allow(naked-new) — the reclaim half above
      threads.erase(threads.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      st->count.store(0, std::memory_order_relaxed);
      st->dropped.store(0, std::memory_order_relaxed);
      ++i;
    }
  }
}

#else  // ----------------------------------------------------------- stub ---

bool SamplingProfiler::start(std::uint64_t interval_us) {
  g_interval_us.store(interval_us ? interval_us : 1000,
                      std::memory_order_relaxed);
  APDS_WARN(
      "sampling profiler unavailable on this platform (stub build); "
      "profile.json reports zero samples");
  return false;
}
void SamplingProfiler::stop() {}
void SamplingProfiler::register_current_thread() {}
void SamplingProfiler::unregister_current_thread() {}
std::uint64_t SamplingProfiler::sample_count() const { return 0; }
std::uint64_t SamplingProfiler::dropped_count() const { return 0; }
SamplingProfiler::Report SamplingProfiler::report() const {
  Report rep;
  rep.interval_us = interval_us();
  return rep;
}
void SamplingProfiler::reset() {}

#endif  // APDS_SAMPLING_REAL

void SamplingProfiler::write_folded(std::ostream& os) const {
  for (const auto& [stack, count] : report().folded)
    os << stack << ' ' << count << '\n';
}

void write_profile_json(std::ostream& os) {
  const SamplingProfiler::Report rep = SamplingProfiler::instance().report();
  const PerfAvailability avail = perf_availability();
  os << "{\n\"interval_us\": " << rep.interval_us
     << ",\n\"samples\": " << rep.samples
     << ",\n\"dropped\": " << rep.dropped
     << ",\n\"threads\": " << rep.threads
     << ",\n\"kernel_backend\": \""
     << kernel_backend_name(global_kernel_backend())
     << "\",\n\"perf_availability\": \"" << perf_availability_name(avail)
     << "\",\n\"perf_reason\": \"" << json_escape(perf_unavailable_reason())
     << "\",\n\"self_time\": [";
  bool first = true;
  for (const auto& entry : rep.self_time) {
    os << (first ? "" : ",") << "\n{\"symbol\": \""
       << json_escape(entry.symbol) << "\", \"samples\": " << entry.samples
       << ", \"fraction\": " << entry.fraction << "}";
    first = false;
  }
  os << "\n],\n\"folded\": [";
  first = true;
  for (const auto& [stack, count] : rep.folded) {
    os << (first ? "" : ",") << "\n\"" << json_escape(stack) << ' ' << count
       << "\"";
    first = false;
  }
  os << "\n],\n\"perf_backends\": [";
  first = true;
  const KernelPerfTable& table = KernelPerfTable::instance();
  for (std::size_t b = 0; b < KernelPerfTable::kBackends; ++b) {
    const std::uint64_t regions = table.regions(b);
    if (regions == 0) continue;
    const PerfCounterValues v = table.total(b);
    os << (first ? "" : ",") << "\n{\"backend\": \""
       << kernel_backend_name(static_cast<KernelBackend>(b))
       << "\", \"regions\": " << regions << ", \"counters_valid\": "
       << (v.valid ? "true" : "false") << ", \"cycles\": " << v.cycles
       << ", \"instructions\": " << v.instructions
       << ", \"cache_references\": " << v.cache_references
       << ", \"cache_misses\": " << v.cache_misses
       << ", \"branch_misses\": " << v.branch_misses;
    if (v.valid && v.cycles > 0) os << ", \"ipc\": " << v.ipc();
    if (v.valid && v.cache_references > 0)
      os << ", \"cache_miss_rate\": " << v.cache_miss_rate();
    os << "}";
    first = false;
  }
  os << "\n]\n}\n";
}

void write_profile_files(const std::string& json_path,
                         const std::string& folded_path) {
  {
    std::ofstream json(json_path, std::ios::trunc);
    if (!json)
      throw IoError("cannot open profile file for writing: " + json_path);
    write_profile_json(json);
    if (!json) throw IoError("profile file write failure: " + json_path);
  }
  std::ofstream folded(folded_path, std::ios::trunc);
  if (!folded)
    throw IoError("cannot open folded-stack file for writing: " +
                  folded_path);
  SamplingProfiler::instance().write_folded(folded);
  if (!folded) throw IoError("folded-stack file write failure: " + folded_path);
}

}  // namespace apds::obs
