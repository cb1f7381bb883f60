#include "harness.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace e2e {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  // splitmix64 finalizer over a combination of both inputs.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + (tag + 1) * 0xd1b54a32d192ed03ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double max_scaled_diff(const apds::Matrix& a, const apds::Matrix& b) {
  if (!a.same_shape(b)) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ref = a.flat()[i];
    const double d = std::fabs(ref - b.flat()[i]) / (std::fabs(ref) + 1.0);
    // NaN compares false against everything; make it the worst case.
    if (!(d <= worst)) worst = std::isnan(d) ? std::numeric_limits<double>::infinity() : d;
  }
  return worst;
}

bool well_formed(const apds::Matrix& mean, const apds::Matrix& var,
                 std::size_t rows, std::size_t cols, double var_floor) {
  if (mean.rows() != rows || mean.cols() != cols || !var.same_shape(mean))
    return false;
  for (double m : mean.flat())
    if (!std::isfinite(m)) return false;
  for (double v : var.flat())
    if (!std::isfinite(v) || v < var_floor) return false;
  return true;
}

bool valid_probs(std::span<const double> p, std::size_t n) {
  if (p.size() != n) return false;
  double sum = 0.0;
  for (double v : p) {
    if (!std::isfinite(v) || v < 0.0 || v > 1.0) return false;
    sum += v;
  }
  return std::fabs(sum - 1.0) <= 1e-9;
}

}  // namespace e2e
