#include "core/inference_session.h"

#include <algorithm>
#include <string>

#include "core/moment_activation.h"
#include "core/moment_contract.h"
#include "core/moment_linear.h"
#include "nn/activation.h"
#include "obs/flight_recorder.h"
#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace apds {

namespace {

std::size_t matrix_bytes(std::size_t elems, std::size_t elem_size) {
  return elems * elem_size;
}

}  // namespace

InferenceSession::InferenceSession(const Mlp& mlp, SessionConfig config)
    : config_(config), id_(new_arena_owner_id()) {
  APDS_CHECK(config_.saturating_pieces >= 3);
  surrogates_.reserve(mlp.num_layers());
  for (std::size_t l = 0; l < mlp.num_layers(); ++l)
    surrogates_.push_back(PiecewiseLinear::for_activation(
        mlp.layer(l).act, config_.saturating_pieces));
  build(mlp);
}

InferenceSession::InferenceSession(const Mlp& mlp,
                                   std::vector<PiecewiseLinear> surrogates,
                                   SessionConfig config)
    : config_(config),
      id_(new_arena_owner_id()),
      surrogates_(std::move(surrogates)) {
  APDS_CHECK_MSG(surrogates_.size() == mlp.num_layers(),
                 "InferenceSession: one surrogate per layer required");
  build(mlp);
}

void InferenceSession::build(const Mlp& mlp) {
  const std::size_t layers = mlp.num_layers();
  APDS_CHECK_MSG(layers > 0, "InferenceSession: empty network");

  dims_.reserve(layers + 1);
  keep_probs_.reserve(layers);
  act_names_.reserve(layers);
  dims_.push_back(mlp.layer(0).in_dim());
  for (std::size_t l = 0; l < layers; ++l) {
    const DenseLayer& layer = mlp.layer(l);
    dims_.push_back(layer.out_dim());
    keep_probs_.push_back(layer.keep_prob);
    act_names_.push_back(activation_name(layer.act));
  }

  // No precision packs W∘W in float: the dispatched f64 and f32 moment
  // tiles both square W as they read it. ApDeepSense keeps no packs of
  // its own: it runs every precision through a session.
  switch (config_.precision) {
    case Precision::kF32:
      // No W∘W pack: the fused f32 tile squares W in-kernel.
      w32_.reserve(layers);
      b32_.reserve(layers);
      for (std::size_t l = 0; l < layers; ++l) {
        const DenseLayer& layer = mlp.layer(l);
        w32_.push_back(to_f32(layer.weight));
        b32_.push_back(to_f32(layer.bias));
      }
      break;
    case Precision::kI8: {
      for (std::size_t l = 0; l + 1 < layers; ++l) {
        APDS_CHECK_MSG(mlp.layer(l).in_dim() <= kMaxQuantizedInnerDim,
                       "InferenceSession(i8): inner dim overflows i32");
        qlayers_.push_back(quantize_dense_layer(mlp.layer(l)));
      }
      const DenseLayer& last = mlp.layer(layers - 1);
      final_w32_ = to_f32(last.weight);
      final_b32_ = to_f32(last.bias);
      break;
    }
    default:
      w64_.reserve(layers);
      b64_.reserve(layers);
      for (std::size_t l = 0; l < layers; ++l) {
        w64_.push_back(mlp.layer(l).weight);
        b64_.push_back(mlp.layer(l).bias);
      }
      break;
  }

  weight_bytes_ = 0;
  for (const Matrix& m : w64_) weight_bytes_ += matrix_bytes(m.size(), 8);
  for (const Matrix& m : b64_) weight_bytes_ += matrix_bytes(m.size(), 8);
  for (const MatrixF& m : w32_) weight_bytes_ += matrix_bytes(m.size(), 4);
  for (const MatrixF& m : b32_) weight_bytes_ += matrix_bytes(m.size(), 4);
  for (const QuantizedDenseLayer& q : qlayers_)
    weight_bytes_ += q.weight.data.size() + q.weight_sq.data.size() +
                     (q.weight.scale.size() + q.weight_sq.scale.size()) * 4 +
                     matrix_bytes(q.bias.size(), 4);
  weight_bytes_ +=
      matrix_bytes(final_w32_.size() + final_b32_.size(), 4);

  // Eagerly plan + back the arena for this thread when the caller declared
  // a batch capacity up front; first propagate is then already steady.
  if (config_.max_batch > 0) (void)thread_arena(config_.max_batch);
}

InferenceSession::ArenaPlan InferenceSession::plan_for(
    std::size_t batch) const {
  ArenaPlan plan;
  plan.batch = batch;
  const std::size_t L = num_layers();
  const bool f64 = config_.precision == Precision::kF64;
  const std::size_t esz = f64 ? sizeof(double) : sizeof(float);

  // Intermediate layer batches h_i ping-pong between two parity slots, so
  // each slot only needs the widest dim of its parity class. The f64 path
  // reads the input and writes the final output in caller memory (same
  // scalar type), so only h_1..h_{L-1} live in the arena; the f32/i8 paths
  // also keep the narrowed input h_0 and the pre-widening output h_L here.
  std::size_t slot_dim[2] = {0, 0};
  const std::size_t lo = f64 ? 1 : 0;
  const std::size_t hi = f64 ? (L == 0 ? 0 : L - 1) : L;
  for (std::size_t i = lo; i <= hi && L > 0; ++i)
    slot_dim[i % 2] = std::max(slot_dim[i % 2], dims_[i]);

  // The prepped tile inputs (scaled mean / variance input) are rebuilt per
  // layer from the live h, so one batch x max_in_dim pair serves them all.
  std::size_t max_in = 0;
  for (std::size_t l = 0; l < L; ++l) max_in = std::max(max_in, dims_[l]);

  ArenaPlanner p;
  plan.slot_mean[0] = p.reserve(batch * slot_dim[0] * esz);
  plan.slot_var[0] = p.reserve(batch * slot_dim[0] * esz);
  plan.slot_mean[1] = p.reserve(batch * slot_dim[1] * esz);
  plan.slot_var[1] = p.reserve(batch * slot_dim[1] * esz);
  plan.sm = p.reserve(batch * max_in * esz);
  plan.vi = p.reserve(batch * max_in * esz);
  if (config_.precision == Precision::kI8) {
    plan.q_sm = p.reserve(batch * max_in);
    plan.q_vi = p.reserve(batch * max_in);
    plan.sm_scale = p.reserve(batch * sizeof(float));
    plan.vi_scale = p.reserve(batch * sizeof(float));
  }
  plan.bytes = p.planned_bytes();
  return plan;
}

std::size_t InferenceSession::planned_bytes(std::size_t batch) const {
  return plan_for(std::max<std::size_t>(batch, 1)).bytes;
}

std::size_t InferenceSession::arena_bytes() const {
  MutexLock lk(&arenas_mu_);
  std::size_t total = 0;
  for (const auto& ta : arenas_) total += ta->arena.capacity();
  return total;
}

InferenceSession::ThreadArena& InferenceSession::thread_arena(
    std::size_t batch) const {
  auto* ta = static_cast<ThreadArena*>(thread_arena_lookup(id_));
  if (ta && ta->plan.batch >= batch) return *ta;

  // Slow path: first use on this thread or a batch above the planned
  // capacity. One plan + one allocation, then the thread
  // is steady again.
  const std::size_t plan_batch = std::max(batch, config_.max_batch);
  MutexLock lk(&arenas_mu_);
  if (!ta) {
    arenas_.push_back(std::make_unique<ThreadArena>());
    ta = arenas_.back().get();
  }
  ta->plan = plan_for(plan_batch);
  ta->arena.allocate(ta->plan.bytes);
  thread_arena_bind(id_, ta);
  return *ta;
}

void InferenceSession::propagate(const MeanVar& input, MeanVar& out) const {
  APDS_CHECK_MSG(input.dim() == input_dim(),
                 "InferenceSession: input dim " << input.dim()
                                                << " != " << input_dim());
  APDS_CHECK_MSG(input.var.rows() == input.mean.rows() &&
                     input.var.cols() == input.mean.cols(),
                 "InferenceSession: mean/var shape mismatch");
  APDS_CHECK_MSG(&input != &out, "InferenceSession: output aliases input");
  const std::size_t batch = input.batch();
  APDS_CHECK_MSG(batch > 0, "InferenceSession: empty batch");
  // The input contract of every precision, before any narrowing.
  check_moment_contract_buffers(input.mean.data(), input.var.data(),
                                input.mean.size(), input_dim(),
                                "session.propagate input");

  TraceSpan span("session.propagate");
  if (span.active())
    span.set_args("\"session\":" + std::to_string(id_) + ",\"precision\":\"" +
                  precision_name(config_.precision) +
                  "\",\"batch\":" + std::to_string(batch));
  // One relaxed load when profiling is off; under --obs-dir this pass's
  // counters attribute to the dispatched kernel backend.
  obs::PerfCounterRegion perf_region;
  if (obs::RequestScope* scope = obs::RequestScope::current())
    scope->set_session(id_);

  ThreadArena& ta = thread_arena(batch);
  // Caller-owned output: Matrix::resize retains capacity, so a reused `out`
  // allocates nothing once warm (the contract test_inference_session
  // measures).
  out.mean.resize(batch, output_dim());
  out.var.resize(batch, output_dim());

  switch (config_.precision) {
    case Precision::kF32:
      propagate_f32(input, out, ta);
      break;
    case Precision::kI8:
      propagate_i8(input, out, ta);
      break;
    default:
      propagate_f64(input, out, ta);
      break;
  }
  propagate_count_.fetch_add(1, std::memory_order_relaxed);
}

MeanVar InferenceSession::propagate(const MeanVar& input) const {
  MeanVar out;
  propagate(input, out);
  return out;
}

MeanVar InferenceSession::propagate(const Matrix& x) const {
  return propagate(MeanVar::point(x));
}

void InferenceSession::propagate_f64(const MeanVar& input, MeanVar& out,
                                     ThreadArena& ta) const {
  const std::size_t batch = input.batch();
  const std::size_t L = num_layers();
  double* sm = ta.arena.at<double>(ta.plan.sm);
  double* vi = ta.arena.at<double>(ta.plan.vi);
  const double* cm = input.mean.data();
  const double* cv = input.var.data();
  for (std::size_t l = 0; l < L; ++l) {
    double* om;
    double* ov;
    if (l + 1 == L) {
      om = out.mean.data();
      ov = out.var.data();
    } else {
      om = ta.arena.at<double>(ta.plan.slot_mean[(l + 1) % 2]);
      ov = ta.arena.at<double>(ta.plan.slot_var[(l + 1) % 2]);
    }
    obs::FlightLayerTimer layer_timer;
    TraceSpan span("apd.layer");
    if (span.active())
      span.set_args("\"layer\":" + std::to_string(l) +
                    ",\"in\":" + std::to_string(dims_[l]) +
                    ",\"out\":" + std::to_string(dims_[l + 1]) +
                    ",\"act\":\"" + act_names_[l] + "\"");
    moment_linear_into(cm, cv, batch, dims_[l], w64_[l].data(),
                       b64_[l].data(), dims_[l + 1], keep_probs_[l], sm, vi,
                       om, ov);
    {
      APDS_TRACE_SCOPE("core.moment_activation");
      moment_activation_batch(surrogates_[l], om, ov, batch * dims_[l + 1]);
    }
    APDS_MOMENT_CONTRACT_BUF(om, ov, batch * dims_[l + 1], dims_[l + 1],
                             "session.propagate layer output");
    cm = om;
    cv = ov;
  }
}

void InferenceSession::propagate_f32(const MeanVar& input, MeanVar& out,
                                     ThreadArena& ta) const {
  const std::size_t batch = input.batch();
  const std::size_t L = num_layers();
  FusedScratchView scratch;
  scratch.sm = ta.arena.at<float>(ta.plan.sm);
  scratch.vi = ta.arena.at<float>(ta.plan.vi);

  // Narrow once at entry (same elementwise cast as to_f32), run the whole
  // layer stack in f32, widen once at exit.
  float* cm = ta.arena.at<float>(ta.plan.slot_mean[0]);
  float* cv = ta.arena.at<float>(ta.plan.slot_var[0]);
  {
    const double* im = input.mean.data();
    const double* iv = input.var.data();
    const std::size_t n = batch * dims_[0];
    for (std::size_t i = 0; i < n; ++i) cm[i] = static_cast<float>(im[i]);
    for (std::size_t i = 0; i < n; ++i) cv[i] = static_cast<float>(iv[i]);
  }
  for (std::size_t l = 0; l < L; ++l) {
    float* om = ta.arena.at<float>(ta.plan.slot_mean[(l + 1) % 2]);
    float* ov = ta.arena.at<float>(ta.plan.slot_var[(l + 1) % 2]);
    obs::FlightLayerTimer layer_timer;
    TraceSpan span("apd.layer");
    if (span.active())
      span.set_args("\"layer\":" + std::to_string(l) +
                    ",\"in\":" + std::to_string(dims_[l]) +
                    ",\"out\":" + std::to_string(dims_[l + 1]) +
                    ",\"act\":\"" + act_names_[l] + "\"");
    moment_linear_act_into(cm, cv, batch, dims_[l], w32_[l].data(),
                           b32_[l].data(), dims_[l + 1], keep_probs_[l],
                           surrogates_[l], scratch, om, ov);
    APDS_MOMENT_CONTRACT_BUF(om, ov, batch * dims_[l + 1], dims_[l + 1],
                             "session.propagate_f32 layer output");
    cm = om;
    cv = ov;
  }
  double* outm = out.mean.data();
  double* outv = out.var.data();
  const std::size_t n = batch * dims_[L];
  for (std::size_t i = 0; i < n; ++i) outm[i] = static_cast<double>(cm[i]);
  for (std::size_t i = 0; i < n; ++i) outv[i] = static_cast<double>(cv[i]);
}

void InferenceSession::propagate_i8(const MeanVar& input, MeanVar& out,
                                    ThreadArena& ta) const {
  const std::size_t batch = input.batch();
  const std::size_t L = num_layers();
  FusedScratchView scratch;
  scratch.sm = ta.arena.at<float>(ta.plan.sm);
  scratch.vi = ta.arena.at<float>(ta.plan.vi);
  scratch.q_sm = ta.arena.at<std::int8_t>(ta.plan.q_sm);
  scratch.q_vi = ta.arena.at<std::int8_t>(ta.plan.q_vi);
  scratch.sm_scale = ta.arena.at<float>(ta.plan.sm_scale);
  scratch.vi_scale = ta.arena.at<float>(ta.plan.vi_scale);

  float* cm = ta.arena.at<float>(ta.plan.slot_mean[0]);
  float* cv = ta.arena.at<float>(ta.plan.slot_var[0]);
  {
    const double* im = input.mean.data();
    const double* iv = input.var.data();
    const std::size_t n = batch * dims_[0];
    for (std::size_t i = 0; i < n; ++i) cm[i] = static_cast<float>(im[i]);
    for (std::size_t i = 0; i < n; ++i) cv[i] = static_cast<float>(iv[i]);
  }
  for (std::size_t l = 0; l < L; ++l) {
    float* om = ta.arena.at<float>(ta.plan.slot_mean[(l + 1) % 2]);
    float* ov = ta.arena.at<float>(ta.plan.slot_var[(l + 1) % 2]);
    obs::FlightLayerTimer layer_timer;
    TraceSpan span("apd.layer");
    if (span.active())
      span.set_args("\"layer\":" + std::to_string(l) +
                    ",\"in\":" + std::to_string(dims_[l]) +
                    ",\"out\":" + std::to_string(dims_[l + 1]) +
                    ",\"act\":\"" + act_names_[l] + "\"");
    if (l + 1 < L) {
      moment_linear_act_into(cm, cv, batch, dims_[l], qlayers_[l],
                             keep_probs_[l], surrogates_[l], scratch, om, ov);
    } else {
      moment_linear_act_into(cm, cv, batch, dims_[l], final_w32_.data(),
                             final_b32_.data(), dims_[l + 1], keep_probs_[l],
                             surrogates_[l], scratch, om, ov);
    }
    APDS_MOMENT_CONTRACT_BUF(om, ov, batch * dims_[l + 1], dims_[l + 1],
                             "session.propagate_i8 layer output");
    cm = om;
    cv = ov;
  }
  double* outm = out.mean.data();
  double* outv = out.var.data();
  const std::size_t n = batch * dims_[L];
  for (std::size_t i = 0; i < n; ++i) outm[i] = static_cast<double>(cm[i]);
  for (std::size_t i = 0; i < n; ++i) outv[i] = static_cast<double>(cv[i]);
}

}  // namespace apds
