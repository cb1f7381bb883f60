#include "core/piecewise_linear.h"

#include <cmath>
#include <limits>

#include "common/error.h"
#include "stats/special.h"

namespace apds {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

PiecewiseLinear::PiecewiseLinear(std::vector<LinearPiece> pieces)
    : pieces_(std::move(pieces)) {
  APDS_CHECK_MSG(!pieces_.empty(), "PiecewiseLinear: no pieces");
  APDS_CHECK_MSG(pieces_.front().lo == -kInf,
                 "PiecewiseLinear: first piece must start at -inf");
  APDS_CHECK_MSG(pieces_.back().hi == kInf,
                 "PiecewiseLinear: last piece must end at +inf");
  for (std::size_t i = 0; i < pieces_.size(); ++i) {
    APDS_CHECK_MSG(pieces_[i].lo < pieces_[i].hi,
                   "PiecewiseLinear: empty piece " << i);
    if (i + 1 < pieces_.size())
      APDS_CHECK_MSG(pieces_[i].hi == pieces_[i + 1].lo,
                     "PiecewiseLinear: gap between pieces " << i << " and "
                                                            << i + 1);
  }
  hi_.reserve(pieces_.size());
  k_.reserve(pieces_.size());
  c_.reserve(pieces_.size());
  for (const LinearPiece& p : pieces_) {
    hi_.push_back(p.hi);
    k_.push_back(p.k);
    c_.push_back(p.c);
  }
}

PiecewiseLinear PiecewiseLinear::identity() {
  return PiecewiseLinear({{-kInf, kInf, 1.0, 0.0}});
}

PiecewiseLinear PiecewiseLinear::relu() {
  return PiecewiseLinear({{-kInf, 0.0, 0.0, 0.0}, {0.0, kInf, 1.0, 0.0}});
}

namespace {
// Importance weight for the fit: pre-activations of trained networks
// concentrate where the weight Gaussian puts its mass, so approximation
// error there is far more damaging than tail error (it compounds
// multiplicatively across layers). The uniform floor keeps far pieces
// sensibly fit instead of extrapolating the central slope.
struct FitWeight {
  double mu = 0.0;
  double sigma = 0.5;
  double operator()(double x) const {
    const double z = (x - mu) / sigma;
    return std::exp(-0.5 * z * z) + 0.05;
  }
};

// Weighted least-squares line fit of f on [a, b] over a uniform grid.
// Unlike the interpolating secant, the LS line has (weighted) zero-mean
// error on the piece — essential because a one-sided bias (chords of a
// concave function always undershoot) compounds across layers.
void ls_line(const std::function<double(double)>& f, const FitWeight& weight,
             double a, double b, double& k, double& c) {
  constexpr int kGrid = 64;
  double sw = 0.0, sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (int i = 0; i <= kGrid; ++i) {
    const double x = a + (b - a) * static_cast<double>(i) / kGrid;
    const double w = weight(x);
    const double y = f(x);
    sw += w;
    sx += w * x;
    sy += w * y;
    sxx += w * x * x;
    sxy += w * x * y;
  }
  const double denom = sxx - sx * sx / sw;
  k = denom > 1e-30 ? (sxy - sx * sy / sw) / denom : 0.0;
  c = (sy - k * sx) / sw;
}

// Max weighted |f - LS-line| over a grid, and where it occurs.
void piece_error(const std::function<double(double)>& f,
                 const FitWeight& weight, double a, double b, double& max_err,
                 double& argmax) {
  double k = 0.0;
  double c = 0.0;
  ls_line(f, weight, a, b, k, c);
  max_err = 0.0;
  argmax = 0.5 * (a + b);
  constexpr int kGrid = 64;
  for (int i = 0; i <= kGrid; ++i) {
    const double x = a + (b - a) * static_cast<double>(i) / kGrid;
    const double err = weight(x) * std::fabs(f(x) - (k * x + c));
    if (err > max_err) {
      max_err = err;
      argmax = x;
    }
  }
}
}  // namespace

PiecewiseLinear PiecewiseLinear::fit_saturating(
    const std::function<double(double)>& f, std::size_t pieces, double range) {
  return fit_saturating_weighted(f, pieces, range, /*weight_mu=*/0.0,
                                 /*weight_sigma=*/0.5);
}

PiecewiseLinear PiecewiseLinear::fit_saturating_weighted(
    const std::function<double(double)>& f, std::size_t pieces, double range,
    double weight_mu, double weight_sigma) {
  APDS_CHECK_MSG(pieces >= 3, "fit_saturating: need at least 3 pieces");
  APDS_CHECK(range > 0.0);
  APDS_CHECK(weight_sigma > 0.0);
  const FitWeight weight{weight_mu, weight_sigma};
  const std::size_t interior = pieces - 2;

  // Adaptive breakpoint placement: start with one interior piece and
  // repeatedly split the piece with the largest interpolation error at the
  // point where that error peaks. This concentrates pieces where the
  // activation curves the most (e.g. tanh around |x| ~ 0.7) and is what
  // lets 7 pieces reach paper-quality accuracy.
  std::vector<double> bps = {-range, range};
  while (bps.size() - 1 < interior) {
    double worst_err = -1.0;
    double split_at = 0.0;
    std::size_t worst_idx = 0;
    for (std::size_t i = 0; i + 1 < bps.size(); ++i) {
      double err = 0.0;
      double argmax = 0.0;
      piece_error(f, weight, bps[i], bps[i + 1], err, argmax);
      if (err > worst_err) {
        worst_err = err;
        split_at = argmax;
        worst_idx = i;
      }
    }
    // Keep the split strictly inside the piece.
    const double lo = bps[worst_idx];
    const double hi = bps[worst_idx + 1];
    split_at = std::clamp(split_at, lo + 0.02 * (hi - lo),
                          hi - 0.02 * (hi - lo));
    bps.insert(bps.begin() + static_cast<std::ptrdiff_t>(worst_idx) + 1,
               split_at);
  }

  // Equal-error relaxation: nudge each interior breakpoint to the position
  // where its two neighboring pieces have equal interpolation error. A few
  // sweeps converge to the (near-optimal) balanced-error placement.
  for (int sweep = 0; sweep < 24; ++sweep) {
    for (std::size_t j = 1; j + 1 < bps.size(); ++j) {
      double lo = bps[j - 1];
      double hi = bps[j + 1];
      for (int iter = 0; iter < 24; ++iter) {
        const double mid = 0.5 * (lo + hi);
        double err_left = 0.0;
        double err_right = 0.0;
        double unused = 0.0;
        piece_error(f, weight, bps[j - 1], mid, err_left, unused);
        piece_error(f, weight, mid, bps[j + 1], err_right, unused);
        if (err_left < err_right)
          lo = mid;
        else
          hi = mid;
      }
      bps[j] = 0.5 * (lo + hi);
    }
  }

  std::vector<LinearPiece> ps;
  ps.reserve(pieces);
  // Tail constants are centered between the boundary value and a
  // deep-in-the-tail probe of the asymptote, halving the tail bias
  // relative to clamping at f(±range).
  const double left_tail = 0.5 * (f(-range) + f(-5.0 * range));
  const double right_tail = 0.5 * (f(range) + f(5.0 * range));
  ps.push_back({-kInf, -range, 0.0, left_tail});
  for (std::size_t i = 0; i + 1 < bps.size(); ++i) {
    double k = 0.0;
    double c = 0.0;
    ls_line(f, weight, bps[i], bps[i + 1], k, c);
    ps.push_back({bps[i], bps[i + 1], k, c});
  }
  ps.push_back({range, kInf, 0.0, right_tail});
  return PiecewiseLinear(std::move(ps));
}

PiecewiseLinear PiecewiseLinear::fit_tanh(std::size_t pieces, double range) {
  return fit_saturating([](double x) { return std::tanh(x); }, pieces, range);
}

PiecewiseLinear PiecewiseLinear::fit_sigmoid(std::size_t pieces, double range) {
  return fit_saturating([](double x) { return sigmoid(x); }, pieces, range);
}

PiecewiseLinear PiecewiseLinear::for_activation(Activation act,
                                                std::size_t tanh_pieces) {
  switch (act) {
    case Activation::kIdentity: return identity();
    case Activation::kRelu: return relu();
    case Activation::kTanh: return fit_tanh(tanh_pieces);
    case Activation::kSigmoid: return fit_sigmoid(tanh_pieces);
  }
  throw InvalidArgument("for_activation: unknown activation");
}

double PiecewiseLinear::eval(double x) const {
  for (const auto& p : pieces_)
    if (x < p.hi) return p.eval(x);
  return pieces_.back().eval(x);
}

double PiecewiseLinear::max_error_against(
    const std::function<double(double)>& f, double lo, double hi,
    std::size_t grid) const {
  APDS_CHECK(hi > lo && grid >= 2);
  double max_err = 0.0;
  for (std::size_t i = 0; i < grid; ++i) {
    const double x =
        lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(grid - 1);
    max_err = std::max(max_err, std::fabs(f(x) - eval(x)));
  }
  return max_err;
}

}  // namespace apds
