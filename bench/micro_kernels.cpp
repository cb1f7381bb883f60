// Microbenchmarks of the numeric kernels underlying every inference path:
// GEMM, the dropout-linear moment map, the closed-form activation moments,
// the fused f32/i8 moment->activation tiles, and whole-network
// ApDeepSense, MCDrop, conv and RNN passes. Each row is timed with
// apds::measure() at pool widths 1 and N (N = --threads / APDS_THREADS /
// hardware) and printed with its mean/p50/p95. Flags: the shared ObsSession
// flags, `--json <path>` (also write the rows as JSON, so the
// serial-vs-parallel perf trajectory is machine-readable across changes and
// bench_compare can gate it) and `--filter <substring>` (run only the rows
// whose name contains it; a filter that matches no row exits 2 and writes
// no JSON). Anything else prints the usage and exits 2.
//
// `apd_propagate_b64` follows the ambient --precision/APDS_PRECISION
// setting so a second run at f32 exercises the flag wiring end to end;
// its `_f32`/`_i8` twins pin their precision, and the fused f32 and i8
// tiles get their own rows (moment_act_fused_b64_{f32,i8}), so
// bench_compare can gate the f32 and quantization speedup floors against
// the f64 session. All apd_propagate_* rows run through planned-arena
// InferenceSessions with a reused output batch, so their `allocs` column
// is 0 in steady state (bench-smoke gates this via bench_compare
// --max-allocs apd_propagate_:0), and apd_session_b1_f32 times one
// batch-1 f32 session call (gated at zero allocations by --max-allocs
// apd_session_:0). conv_propagate_b1 and rnn_b1 time the conv/RNN
// extensions' in-place forms (gated at 0 by --max-allocs conv_propagate_:0
// and rnn_:0), and mcdrop50_predict_b1 (relu) and mcdrop50_predict_b1_tanh
// the batched MCDrop-50 comparator (gated at its returned predictive's 2
// matrices).
// The JSON header records the resolved
// kernel ISA tier ("isa") and ambient precision alongside the thread
// count, so a comparison across reports taken on different machines or
// under a forced APDS_KERNEL is visible instead of silently misleading.
// Every row also carries a `cv` column (flagged `noisy` above 10% so
// jittery-runner regressions stay interpretable), an `allocs` column
// (operator-new calls per iteration, from the alloc_stats hooks) and —
// when hardware counters are available — `ipc`/`cache_miss_rate` from a
// perf_event counter group around the kernel; the `perf_region_overhead`
// row gates the profiling-off cost of the counter regions the same way
// trace_span_overhead gates disabled spans.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/precision.h"
#include "common/rng.h"
#include "conv/conv_apdeepsense.h"
#include "conv/rnn.h"
#include "core/apdeepsense.h"
#include "core/inference_session.h"
#include "core/moment_fused.h"
#include "obs/alloc_stats.h"
#include "obs/perf_counters.h"
#include "obs/run_options.h"
#include "tensor/kernels/kernel_dispatch.h"
#include "obs/trace.h"
#include "platform/profiler.h"
#include "platform/thread_pool.h"
#include "tensor/gemm.h"
#include "uncertainty/mcdrop.h"

namespace {

using namespace apds;

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng) {
  Matrix m(r, c);
  for (double& v : m.flat()) v = rng.normal();
  return m;
}

/// Keeps a benchmarked result observable, so the compiler cannot drop the
/// work that produced it.
template <typename T>
void do_not_optimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

Mlp paper_mlp(Activation act, Rng& rng) {
  MlpSpec spec;
  spec.dims = {250, 512, 512, 512, 512, 250};
  spec.hidden_act = act;
  spec.hidden_keep_prob = 0.9;
  return Mlp::make(spec, rng);
}

struct KernelRow {
  std::string name;
  std::size_t threads;
  TimingResult timing;
  obs::PerfCounterValues perf;  ///< hardware counters over the extra pass
  std::uint64_t allocs = 0;     ///< operator-new calls per iteration
};

/// The kernel rows whose name contains `filter`, measured at pool width
/// `threads`.
void run_kernel_suite(std::size_t threads, const std::string& filter,
                      std::vector<KernelRow>& rows) {
  set_global_threads(threads);
  // One log line (not one per row) when hardware counters are degraded;
  // the rows then omit their ipc/cache_miss_rate columns.
  static bool perf_reported = false;
  if (!perf_reported &&
      obs::perf_availability() != obs::PerfAvailability::kAvailable) {
    std::printf("hardware counters %s (%s); ipc/cache_miss_rate columns "
                "omitted\n",
                obs::perf_availability_name(obs::perf_availability()),
                obs::perf_unavailable_reason().c_str());
    perf_reported = true;
  }
  // min_seconds is the measured window: the p50 of ~0.1 s of iterations
  // moves with any slow stretch of that length on a shared host.
  auto record = [&](const char* name, const std::function<void()>& fn,
                    double min_seconds = 0.1) {
    if (std::string(name).find(filter) == std::string::npos) return;
    rows.push_back({name, threads, measure(fn, 5, min_seconds), {}, 0});
    KernelRow& row = rows.back();
    // Counter + allocation pass: a few extra iterations under one counter
    // region (the calling thread's share — see perf_counters.h). Ratio
    // columns (ipc, miss rates) are iteration-count free; allocs divide.
    const std::size_t perf_iters = 4;
    const obs::AllocCounters alloc0 = obs::thread_alloc_counters();
    row.perf = obs::perf_measure(fn, perf_iters);
    row.allocs =
        (obs::thread_alloc_counters() - alloc0).allocs / perf_iters;
    std::printf("  [threads=%zu] %-22s mean %.4f ms  p50 %.4f ms  "
                "p95 %.4f ms%s\n",
                threads, name, row.timing.mean_ms, row.timing.median_ms,
                row.timing.p95_ms, row.timing.cv > 0.10 ? "  (noisy)" : "");
  };

  Rng rng(21);
  {
    const Matrix a = random_matrix(256, 256, rng);
    const Matrix b = random_matrix(256, 256, rng);
    Matrix c(256, 256);
    record("gemm_256", [&] {
      gemm(a, b, c);
      do_not_optimize(c.data());
    });
  }
  {
    const Matrix weight = random_matrix(512, 512, rng);
    const Matrix bias = random_matrix(1, 512, rng);
    MeanVar input(64, 512);
    for (double& v : input.mean.flat()) v = rng.normal();
    for (double& v : input.var.flat()) v = std::fabs(rng.normal());
    record("moment_linear_b64", [&] {
      MeanVar out = moment_linear(input, weight, bias, 0.9);
      do_not_optimize(out.mean.data());
    });
    const MatrixF wf = to_f32(weight);
    const MatrixF bf = to_f32(bias);
    const MeanVarF inputf = to_f32(input);
    const auto f = PiecewiseLinear::fit_tanh(7);
    record("activation_moments_b64", [&] {
      MeanVar copy = input;
      moment_activation_inplace(f, copy);
      do_not_optimize(copy.mean.data());
    });
    record("activation_moments_b64_f32", [&] {
      MeanVarF copy = inputf;
      moment_activation_inplace(f, copy);
      do_not_optimize(copy.mean.data());
    });
    // The fused rows own their scratch and output, as a session does (the
    // i8 row adds the quantized-row blocks).
    const std::size_t batch = inputf.batch();
    const std::size_t kdim = inputf.dim();
    std::vector<float> fsm(batch * kdim), fvi(batch * kdim);
    std::vector<float> sm_scale(batch), vi_scale(batch);
    std::vector<std::int8_t> q_sm(batch * kdim), q_vi(batch * kdim);
    FusedScratchView scratch;
    scratch.sm = fsm.data();
    scratch.vi = fvi.data();
    scratch.q_sm = q_sm.data();
    scratch.q_vi = q_vi.data();
    scratch.sm_scale = sm_scale.data();
    scratch.vi_scale = vi_scale.data();
    MeanVarF fused(batch, wf.cols());
    record("moment_act_fused_b64_f32", [&] {
      moment_linear_act_into(inputf.mean.data(), inputf.var.data(), batch,
                             kdim, wf.data(), bf.data(), wf.cols(), 0.9, f,
                             scratch, fused.mean.data(), fused.var.data());
      do_not_optimize(fused.mean.data());
    });
    DenseLayer dense;
    dense.weight = weight;
    dense.bias = bias;
    dense.keep_prob = 0.9;
    const QuantizedDenseLayer qdense = quantize_dense_layer(dense);
    record("moment_act_fused_b64_i8", [&] {
      moment_linear_act_into(inputf.mean.data(), inputf.var.data(), batch,
                             kdim, qdense, 0.9, f, scratch, fused.mean.data(),
                             fused.var.data());
      do_not_optimize(fused.mean.data());
    });
  }
  {
    Rng net_rng(5);
    const Mlp mlp = paper_mlp(Activation::kTanh, net_rng);
    const Matrix x = random_matrix(64, 250, rng);
    const MeanVar input = MeanVar::point(x);
    MeanVar out;  // reused across calls: warmed-up iterations allocate 0
    // Every apd_propagate_* row below runs through a planned-arena
    // InferenceSession and is gated at 0 allocs/iteration by bench-smoke
    // (bench_compare --max-allocs apd_propagate_:0). Ambient precision on
    // the first row on purpose: a --precision f32 run moves this row (and
    // only this row) to the fast path, exercising the flag wiring end to
    // end. The *_f32/_i8 rows pin their precision explicitly.
    SessionConfig ambient_cfg;
    ambient_cfg.precision = global_precision();
    ambient_cfg.max_batch = 64;
    const InferenceSession apd_session(mlp, ambient_cfg);
    record("apd_propagate_b64", [&] {
      apd_session.propagate(input, out);
      do_not_optimize(out.mean.data());
    });
    SessionConfig f32_cfg;
    f32_cfg.precision = Precision::kF32;
    f32_cfg.max_batch = 64;
    const InferenceSession f32_session(mlp, f32_cfg);
    record("apd_propagate_b64_f32", [&] {
      f32_session.propagate(input, out);
      do_not_optimize(out.mean.data());
    });
    SessionConfig i8_cfg;
    i8_cfg.precision = Precision::kI8;
    i8_cfg.max_batch = 64;
    const InferenceSession i8_session(mlp, i8_cfg);
    record("apd_propagate_b64_i8", [&] {
      i8_session.propagate(input, out);
      do_not_optimize(out.mean.data());
    });
    // Small-batch serving row: one session call at batch 1 (f32, the
    // serving configuration), where per-call allocation or packing would
    // be the whole cost.
    const MeanVar input1 = MeanVar::point(random_matrix(1, 250, rng));
    SessionConfig b1_cfg;
    b1_cfg.precision = Precision::kF32;
    b1_cfg.max_batch = 1;
    const InferenceSession b1_session(mlp, b1_cfg);
    MeanVar out1;
    record("apd_session_b1_f32", [&] {
      b1_session.propagate(input1, out1);
      do_not_optimize(out1.mean.data());
    });
  }
  {
    Rng net_rng(6);
    const Mlp mlp = paper_mlp(Activation::kRelu, net_rng);
    const Matrix x = random_matrix(8, 250, rng);
    record("mcdrop30_b8", [&] {
      Rng sample_rng(17);
      const auto samples = mcdrop_collect(mlp, x, 30, sample_rng);
      do_not_optimize(samples.data());
    });
    // The paper's comparator at batch 1: MCDrop-50 runs as one stacked
    // 50-row pass and summarizes straight from it, so a warm call
    // allocates only the returned predictive's two matrices
    // (bench_compare --max-allocs mcdrop50_predict_:2).
    const Matrix x1 = random_matrix(1, 250, rng);
    const McDrop mc(mlp, 50, /*seed=*/19);
    record("mcdrop50_predict_b1", [&] {
      const PredictiveGaussian pred = mc.predict_regression(x1);
      do_not_optimize(pred.mean.data());
    });
    // The same comparator on the same shapes with tanh hidden layers: equal
    // GEMM flops, plus a tanh per hidden element in the stacked pass's
    // epilogue. CI floors its time against the relu row's
    // (bench_compare --speedup
    // mcdrop50_predict_b1_tanh@t1:mcdrop50_predict_b1@t1), so a libm tanh
    // back in the epilogue fails the gate.
    Rng tanh_rng(6);
    const Mlp tanh_mlp = paper_mlp(Activation::kTanh, tanh_rng);
    const McDrop mc_tanh(tanh_mlp, 50, /*seed=*/19);
    record("mcdrop50_predict_b1_tanh", [&] {
      const PredictiveGaussian pred = mc_tanh.predict_regression(x1);
      do_not_optimize(pred.mean.data());
    });
  }
  {
    // The conv/RNN extensions through their in-place forms at batch 1 on
    // the IMU shapes (128 steps x 6 channels; three 5-tap stride-2 conv
    // layers of 32 channels and a 416-256-6 head; a 128-wide tanh RNN over
    // 32 steps): 0 allocations once warm (bench_compare --max-allocs
    // conv_propagate_:0 and rnn_:0).
    Rng net_rng(7);
    std::vector<Conv1dLayer> convs;
    std::size_t in_ch = 6;
    for (int l = 0; l < 3; ++l) {
      convs.push_back(
          make_conv1d(5, in_ch, 32, 2, Activation::kRelu, 0.9, net_rng));
      in_ch = 32;
    }
    MlpSpec head;
    head.dims = {416, 256, 6};
    head.hidden_keep_prob = 0.9;
    const ConvNet net(128, 6, std::move(convs), Mlp::make(head, net_rng));
    const ConvApDeepSense conv(net);
    const MeanVar window = MeanVar::point(random_matrix(1, 128 * 6, rng));
    MeanVar conv_out;
    record("conv_propagate_b1", [&] {
      conv.propagate(window, conv_out);
      do_not_optimize(conv_out.mean.data());
    });
    const RnnCell cell =
        make_rnn_cell(24, 128, Activation::kTanh, 0.9, net_rng);
    const PiecewiseLinear tanh_pwl =
        PiecewiseLinear::for_activation(Activation::kTanh);
    const Matrix seq = random_matrix(1, 128 * 6, rng);
    MeanVar rnn_out;
    record("rnn_b1", [&] {
      moment_rnn(cell, seq, 32, tanh_pwl, rnn_out);
      do_not_optimize(rnn_out.mean.data());
    });
  }
  {
    // Tracing-off span overhead: 64k disabled APDS_TRACE_SCOPE entries. The
    // guard must be a cheap enabled() check; this row gates regressions in
    // it (e.g. the span-id/context bookkeeping leaking past the guard). A
    // call is only ~0.4 ms, so one slow stretch of the host covers a whole
    // 0.1 s window and doubled its p50; over 1 s the p50 needs a slow half
    // second to move.
    record(
        "trace_span_overhead",
        [&] {
          std::uint64_t sink = 0;
          for (std::uint64_t i = 0; i < 65536; ++i) {
            APDS_TRACE_SCOPE("bench.noop");
            sink += i;
          }
          do_not_optimize(sink);
        },
        1.0);
    // Profiling-off counter-region overhead: 64k gated PerfCounterRegion
    // entries. The default constructor must stay one relaxed load when
    // --obs-dir is off; this row gates that (the analogue of
    // trace_span_overhead for the hardware-counter layer).
    record("perf_region_overhead", [&] {
      std::uint64_t sink = 0;
      for (std::uint64_t i = 0; i < 65536; ++i) {
        obs::PerfCounterRegion region;
        sink += i;
      }
      do_not_optimize(sink);
    });
  }
}

/// Write the measured rows as the micro_kernels JSON report.
void write_kernel_json(const std::string& path, std::size_t threads,
                       const std::vector<KernelRow>& rows) {
  std::ofstream os(path);
  if (!os) throw IoError("cannot write " + path);
  os << "{\"bench\":\"micro_kernels\",\"threads\":" << threads
     << ",\"isa\":\"" << kernel_backend_name(global_kernel_backend())
     << "\",\"precision\":\"" << precision_name(global_precision())
     << "\",\"kernels\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& row = rows[i];
    const TimingResult& t = row.timing;
    if (i) os << ",";
    os << "{\"name\":\"" << row.name << "\",\"threads\":"
       << row.threads << ",\"mean_ms\":" << t.mean_ms
       << ",\"p50_ms\":" << t.median_ms << ",\"p95_ms\":" << t.p95_ms
       << ",\"iterations\":" << t.iterations << ",\"cv\":" << t.cv;
    // Jittery rows are flagged so a bench_compare regression on them is
    // read as runner noise, not a kernel change.
    if (t.cv > 0.10) os << ",\"noisy\":true";
    os << ",\"allocs\":" << row.allocs;
    // Hardware-counter columns only when the counter group really ran
    // (bench_compare logs unknown/missing keys as skips either way).
    if (row.perf.valid && row.perf.cycles > 0)
      os << ",\"ipc\":" << row.perf.ipc();
    if (row.perf.valid && row.perf.cache_references > 0)
      os << ",\"cache_miss_rate\":" << row.perf.cache_miss_rate();
    os << "}";
  }
  os << "]}\n";
  APDS_CHECK_MSG(os.good(), "short write to " << path);
  std::printf("kernel timings written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  apds::obs::ObsOptions options = apds::obs::parse_obs_flags(argc, argv);
  std::string json_path;
  std::string filter;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--json" || arg == "--filter") && i + 1 < argc) {
      (arg == "--json" ? json_path : filter) = argv[++i];
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s'\nusage: %s [--json <path>] "
                   "[--filter <substring>] [flags]\n%s\n",
                   argv[i], argv[0], apds::obs::obs_flags_help());
      return 2;
    }
  }
  apds::obs::ObsSession obs_session(std::move(options));

  const std::size_t threads = apds::global_threads();
  std::printf("kernel suite (threads 1 vs %zu):\n", threads);
  std::vector<KernelRow> rows;
  run_kernel_suite(1, filter, rows);
  if (threads != 1) run_kernel_suite(threads, filter, rows);
  apds::set_global_threads(threads);  // leave the pool as configured
  if (rows.empty()) {
    std::fprintf(stderr, "no kernel row matches --filter '%s'\n",
                 filter.c_str());
    return 2;
  }
  if (!json_path.empty()) write_kernel_json(json_path, threads, rows);
  return 0;
}
