// apds_report: one reader for an `--obs-dir` directory. It reads whichever
// of trace.json, flight.json and profile.json the directory holds and
// prints, in order:
//   * the slowest-K requests of the trace, each with its span critical
//     path, its spans by name and its flight record;
//   * the profile's self-time table and per-kernel-backend counter table;
//   * the flight recorder's per-request allocation ranking;
//   * the trace's span totals by name.
//
//   apds_report <dir> [--top <K>] [--request <id>]
//
// The trace's "X" events carry "req"/"span"/"parent" ids in their args
// (obs/trace.h writes them for every span recorded under an active
// RequestContext); the per-request view ignores events without a "req"
// (training spans, bench loops), the span totals count them. --request
// prints only that request's view and exits 1 when the trace has no spans
// for it, so CI can assert that an exemplar's request id resolves to a
// real trace.
//
// Counter-denied runners are first-class: when the profile records a
// degraded perf availability the report prints the one-line reason and the
// backend table falls back to region counts (attribution still works — the
// regions were counted per dispatched backend even without counter data).
//
// Exit codes: 0 = report printed, 1 = --request id not found,
//             2 = usage / file / parse error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/parse_num.h"
#include "json_dom.h"

namespace {

using apds::tools::JsonValue;
using apds::tools::parse_json_file;

double number_or(const JsonValue& obj, const std::string& key, double fb) {
  const JsonValue* v = obj.find(key);
  return v && v->kind == JsonValue::Kind::kNumber ? v->number : fb;
}

std::string string_or(const JsonValue& obj, const std::string& key,
                      const std::string& fb) {
  const JsonValue* v = obj.find(key);
  return v && v->kind == JsonValue::Kind::kString ? v->string : fb;
}

/// `key` as an array, or a parse error naming the file.
const std::vector<JsonValue>& require_array(const JsonValue& root,
                                            const std::string& key,
                                            const std::string& path) {
  const JsonValue* v = root.find(key);
  if (!v || v->kind != JsonValue::Kind::kArray)
    throw std::runtime_error(path + ": no \"" + key + "\" array");
  return v->array;
}

/// One "X" event; the ids are 0 when the span is not request-attributed.
struct Span {
  std::string name;
  std::uint64_t request_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  std::uint32_t tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
};

/// One flight-recorder record (the fields the report prints).
struct FlightRecord {
  std::uint64_t request_id = 0;
  double dur_ms = 0.0;
  std::vector<double> layers_ms;
  double input_mean = 0.0;
  double input_absmax = 0.0;
  double pred_mean = 0.0;
  double pred_var = 0.0;
  double allocs = 0.0;       ///< operator-new calls during the request
  double alloc_bytes = 0.0;  ///< bytes requested during the request
};

struct Request {
  std::uint64_t id = 0;
  std::vector<Span> spans;  ///< sorted by start time
  double dur_ms = 0.0;      ///< root-span duration (longest root)
  std::size_t threads = 0;  ///< distinct tids that recorded spans
};

std::vector<Span> load_trace(const std::string& path) {
  const JsonValue root = parse_json_file(path);
  std::vector<Span> spans;
  for (const JsonValue& e : require_array(root, "traceEvents", path)) {
    if (string_or(e, "ph", "") != "X") continue;  // skip flow/meta events
    Span s;
    if (const JsonValue* args = e.find("args")) {
      s.request_id = static_cast<std::uint64_t>(number_or(*args, "req", 0.0));
      s.span_id = static_cast<std::uint64_t>(number_or(*args, "span", 0.0));
      s.parent_span_id =
          static_cast<std::uint64_t>(number_or(*args, "parent", 0.0));
    }
    s.name = string_or(e, "name", "?");
    s.tid = static_cast<std::uint32_t>(number_or(e, "tid", 0.0));
    s.ts_us = number_or(e, "ts", 0.0);
    s.dur_us = number_or(e, "dur", 0.0);
    spans.push_back(std::move(s));
  }
  return spans;
}

std::vector<FlightRecord> load_flight(const std::string& path) {
  const JsonValue root = parse_json_file(path);
  std::vector<FlightRecord> out;
  for (const JsonValue& r : require_array(root, "requests", path)) {
    FlightRecord rec;
    rec.request_id =
        static_cast<std::uint64_t>(number_or(r, "request_id", 0.0));
    rec.dur_ms = number_or(r, "dur_ms", 0.0);
    rec.input_mean = number_or(r, "input_mean", 0.0);
    rec.input_absmax = number_or(r, "input_absmax", 0.0);
    rec.pred_mean = number_or(r, "pred_mean", 0.0);
    rec.pred_var = number_or(r, "pred_var", 0.0);
    rec.allocs = number_or(r, "allocs", 0.0);
    rec.alloc_bytes = number_or(r, "alloc_bytes", 0.0);
    if (const JsonValue* layers = r.find("layers_ms"))
      for (const JsonValue& l : layers->array) rec.layers_ms.push_back(l.number);
    out.push_back(std::move(rec));
  }
  return out;
}

/// Group the request-attributed spans per request.
std::vector<Request> group_requests(const std::vector<Span>& spans) {
  std::map<std::uint64_t, Request> by_id;
  for (const Span& s : spans) {
    if (s.request_id == 0) continue;
    Request& r = by_id[s.request_id];
    r.id = s.request_id;
    r.spans.push_back(s);
  }
  std::vector<Request> out;
  out.reserve(by_id.size());
  for (auto& [id, r] : by_id) {
    std::sort(r.spans.begin(), r.spans.end(),
              [](const Span& a, const Span& b) { return a.ts_us < b.ts_us; });
    std::map<std::uint64_t, bool> in_request;
    for (const Span& s : r.spans) in_request[s.span_id] = true;
    std::vector<std::uint32_t> tids;
    for (const Span& s : r.spans) {
      tids.push_back(s.tid);
      // A root is a span whose parent is outside this request's span set
      // (normally the RequestScope's own "request" span, parent 0).
      if (!in_request.count(s.parent_span_id))
        r.dur_ms = std::max(r.dur_ms, s.dur_us * 1e-3);
    }
    std::sort(tids.begin(), tids.end());
    r.threads = static_cast<std::size_t>(
        std::unique(tids.begin(), tids.end()) - tids.begin());
    out.push_back(std::move(r));
  }
  return out;
}

/// Critical path: from the longest root, repeatedly descend into the
/// longest-duration child. Prints an indented chain.
void print_critical_path(const Request& r) {
  std::map<std::uint64_t, std::vector<const Span*>> children;
  std::map<std::uint64_t, bool> in_request;
  for (const Span& s : r.spans) in_request[s.span_id] = true;
  const Span* node = nullptr;
  for (const Span& s : r.spans) {
    if (in_request.count(s.parent_span_id))
      children[s.parent_span_id].push_back(&s);
    else if (!node || s.dur_us > node->dur_us)
      node = &s;
  }
  if (!node) return;
  std::printf("  critical path:\n");
  for (int depth = 0; node; ++depth) {
    std::printf("    %*s%s  %.4f ms  (tid %u)\n", 2 * depth, "",
                node->name.c_str(), node->dur_us * 1e-3, node->tid);
    const auto it = children.find(node->span_id);
    const Span* next = nullptr;
    if (it != children.end())
      for (const Span* child : it->second)
        if (!next || child->dur_us > next->dur_us) next = child;
    node = next;
  }
}

/// Count and total milliseconds per span name, sorted by name.
std::map<std::string, std::pair<std::size_t, double>> totals_by_name(
    const std::vector<Span>& spans) {
  std::map<std::string, std::pair<std::size_t, double>> by_name;
  for (const Span& s : spans) {
    auto& [count, total_ms] = by_name[s.name];
    ++count;
    total_ms += s.dur_us * 1e-3;
  }
  return by_name;
}

void print_request(const Request& r, const std::vector<FlightRecord>& flight) {
  std::printf("request %llu: %.4f ms, %zu span(s) on %zu thread(s)\n",
              static_cast<unsigned long long>(r.id), r.dur_ms, r.spans.size(),
              r.threads);
  print_critical_path(r);
  std::printf("  spans by name:\n");
  for (const auto& [name, ct] : totals_by_name(r.spans))
    std::printf("    %-24s x%-4zu %10.4f ms\n", name.c_str(), ct.first,
                ct.second);
  const auto rec = std::find_if(
      flight.begin(), flight.end(),
      [&](const FlightRecord& f) { return f.request_id == r.id; });
  if (rec == flight.end()) return;
  std::printf("  flight record: dur %.4f ms, input mean %.4f absmax %.4f, "
              "pred mean %.4f var %.4g, allocs %.0f (%.0f bytes)\n",
              rec->dur_ms, rec->input_mean, rec->input_absmax, rec->pred_mean,
              rec->pred_var, rec->allocs, rec->alloc_bytes);
  if (!rec->layers_ms.empty()) {
    std::printf("  layers (flight):");
    for (double ms : rec->layers_ms) std::printf(" %.4f", ms);
    std::printf(" ms\n");
  }
}

void print_slowest(std::vector<Request> requests,
                   const std::vector<FlightRecord>& flight, std::size_t top_k) {
  if (requests.empty()) {
    std::printf("no request-attributed spans in trace.json\n\n");
    return;
  }
  std::sort(requests.begin(), requests.end(),
            [](const Request& a, const Request& b) {
              return a.dur_ms > b.dur_ms;
            });
  const std::size_t shown = std::min(top_k, requests.size());
  std::printf("%zu request(s) in trace; slowest %zu:\n", requests.size(),
              shown);
  std::printf("%-12s %12s %8s %8s\n", "request", "dur_ms", "spans",
              "threads");
  for (std::size_t i = 0; i < shown; ++i)
    std::printf("%-12llu %12.4f %8zu %8zu\n",
                static_cast<unsigned long long>(requests[i].id),
                requests[i].dur_ms, requests[i].spans.size(),
                requests[i].threads);
  std::printf("\n");
  for (std::size_t i = 0; i < shown; ++i) {
    print_request(requests[i], flight);
    std::printf("\n");
  }
}

void print_profile(const JsonValue& profile, std::size_t top_k) {
  const std::string avail = string_or(profile, "perf_availability", "unknown");
  std::printf("profile: %.0f samples (%.0f dropped) on %.0f thread(s),"
              " interval %.0f us\n",
              number_or(profile, "samples", 0.0),
              number_or(profile, "dropped", 0.0),
              number_or(profile, "threads", 0.0),
              number_or(profile, "interval_us", 0.0));
  std::printf("kernel backend: %s; hardware counters: %s\n",
              string_or(profile, "kernel_backend", "?").c_str(),
              avail.c_str());
  if (avail != "available")
    std::printf("  (%s)\n",
                string_or(profile, "perf_reason", "no reason recorded")
                    .c_str());

  const JsonValue* self = profile.find("self_time");
  if (!self || self->kind != JsonValue::Kind::kArray || self->array.empty()) {
    std::printf("self-time: no samples\n");
  } else {
    const std::size_t shown = std::min(top_k, self->array.size());
    std::printf("self-time (top %zu of %zu symbols):\n", shown,
                self->array.size());
    std::printf("  %8s %7s  %s\n", "samples", "pct", "symbol");
    for (std::size_t i = 0; i < shown; ++i) {
      const JsonValue& entry = self->array[i];
      std::printf("  %8.0f %6.1f%%  %s\n", number_or(entry, "samples", 0.0),
                  number_or(entry, "fraction", 0.0) * 100.0,
                  string_or(entry, "symbol", "?").c_str());
    }
  }

  const JsonValue* backends = profile.find("perf_backends");
  if (!backends || backends->kind != JsonValue::Kind::kArray ||
      backends->array.empty()) {
    std::printf("kernel backends: no counter regions recorded\n\n");
    return;
  }
  std::printf("kernel backends (counter regions by dispatched tier):\n");
  std::printf("  %-8s %10s %14s %16s %8s %12s\n", "backend", "regions",
              "cycles", "instructions", "ipc", "miss_rate");
  for (const JsonValue& b : backends->array) {
    const JsonValue* valid = b.find("counters_valid");
    if (valid && valid->kind == JsonValue::Kind::kBool && valid->boolean)
      std::printf("  %-8s %10.0f %14.0f %16.0f %8.2f %11.2f%%\n",
                  string_or(b, "backend", "?").c_str(),
                  number_or(b, "regions", 0.0), number_or(b, "cycles", 0.0),
                  number_or(b, "instructions", 0.0), number_or(b, "ipc", 0.0),
                  number_or(b, "cache_miss_rate", 0.0) * 100.0);
    else
      std::printf("  %-8s %10.0f %14s %16s %8s %12s\n",
                  string_or(b, "backend", "?").c_str(),
                  number_or(b, "regions", 0.0), "-", "-", "-", "-");
  }
  std::printf("\n");
}

void print_flight_allocs(std::vector<FlightRecord> rows, std::size_t top_k) {
  if (rows.empty()) {
    std::printf("flight: no requests in flight.json\n\n");
    return;
  }
  double total_allocs = 0.0, total_bytes = 0.0;
  for (const FlightRecord& r : rows) {
    total_allocs += r.allocs;
    total_bytes += r.alloc_bytes;
  }
  const double n = static_cast<double>(rows.size());
  std::printf("flight: %zu request(s), mean %.1f allocs / %.0f bytes "
              "per request\n",
              rows.size(), total_allocs / n, total_bytes / n);
  std::sort(rows.begin(), rows.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.allocs > b.allocs;
            });
  const std::size_t shown = std::min(top_k, rows.size());
  std::printf("  top %zu by allocations:\n", shown);
  std::printf("  %-12s %12s %10s %14s\n", "request", "dur_ms", "allocs",
              "alloc_bytes");
  for (std::size_t i = 0; i < shown; ++i)
    std::printf("  %-12llu %12.4f %10.0f %14.0f\n",
                static_cast<unsigned long long>(rows[i].request_id),
                rows[i].dur_ms, rows[i].allocs, rows[i].alloc_bytes);
  std::printf("\n");
}

void print_span_totals(const std::vector<Span>& spans, std::size_t top_k) {
  const auto by_name = totals_by_name(spans);
  if (by_name.empty()) {
    std::printf("span totals: no spans in trace.json\n");
    return;
  }
  std::vector<std::pair<std::string, std::pair<std::size_t, double>>> rows(
      by_name.begin(), by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.second > b.second.second;
  });
  const std::size_t shown = std::min(top_k, rows.size());
  std::printf("span totals (top %zu of %zu names):\n", shown, rows.size());
  for (std::size_t i = 0; i < shown; ++i)
    std::printf("  %-28s x%-6zu %12.4f ms\n", rows[i].first.c_str(),
                rows[i].second.first, rows[i].second.second);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <dir> [--top <K>] [--request <id>]\n"
               "  reads trace.json, flight.json and profile.json from an"
               " --obs-dir directory and\n  prints the slowest-K requests,"
               " the self-time and kernel-backend tables, the\n  flight"
               " allocation ranking and the span totals.\n"
               "  exit 1 when --request <id> has no spans in the trace.\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir_arg;
  std::size_t top_k = 5;
  std::uint64_t only_request = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--top" || arg == "--request") {
      if (i + 1 >= argc) return usage(argv[0]);
      const auto n = apds::parse_unsigned(argv[++i]);
      if (!n || *n == 0) return usage(argv[0]);
      if (arg == "--top")
        top_k = static_cast<std::size_t>(*n);
      else
        only_request = *n;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (dir_arg.empty() && arg.rfind("--", 0) != 0) {
      dir_arg = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (dir_arg.empty()) return usage(argv[0]);

  try {
    const std::filesystem::path dir(dir_arg);
    if (!std::filesystem::is_directory(dir))
      throw std::runtime_error(dir_arg + ": not a directory");
    auto file = [&](const char* name) -> std::optional<std::string> {
      const std::filesystem::path p = dir / name;
      if (!std::filesystem::exists(p)) return std::nullopt;
      return p.string();
    };
    const auto trace_path = file("trace.json");
    const auto flight_path = file("flight.json");
    const auto profile_path = file("profile.json");
    if (!trace_path && !flight_path && !profile_path)
      throw std::runtime_error(dir_arg +
                               ": no trace.json, flight.json or profile.json");
    const std::vector<Span> spans =
        trace_path ? load_trace(*trace_path) : std::vector<Span>{};
    const std::vector<FlightRecord> flight =
        flight_path ? load_flight(*flight_path) : std::vector<FlightRecord>{};
    const std::optional<JsonValue> profile =
        profile_path ? std::optional(parse_json_file(*profile_path))
                     : std::nullopt;
    const std::vector<Request> requests = group_requests(spans);

    if (only_request != 0) {
      for (const Request& r : requests) {
        if (r.id != only_request) continue;
        print_request(r, flight);
        return 0;
      }
      std::fprintf(stderr, "request %llu not found in %s\n",
                   static_cast<unsigned long long>(only_request),
                   trace_path ? trace_path->c_str() : dir_arg.c_str());
      return 1;
    }

    if (trace_path) print_slowest(requests, flight, top_k);
    if (profile) print_profile(*profile, top_k);
    if (flight_path) print_flight_allocs(flight, top_k);
    if (trace_path) print_span_totals(spans, top_k);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "apds_report: %s\n", e.what());
    return 2;
  }
}
