#include "common/rng.h"

#include <cmath>

#include "common/error.h"

namespace apds {

namespace {
// splitmix64: used for seeding and for split().
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  APDS_CHECK(n > 0);
  // Rejection-free modulo is fine for our n << 2^64 use cases, but use
  // Lemire's multiply-shift to avoid bias anyway.
  const unsigned __int128 m =
      static_cast<unsigned __int128>(next()) * static_cast<unsigned __int128>(n);
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  spare_normal_ = r * std::sin(theta);
  has_spare_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::lognormal(double mu_log, double sigma_log) {
  return std::exp(normal(mu_log, sigma_log));
}

Rng Rng::split() {
  std::uint64_t sm = next();
  return Rng(splitmix64(sm));
}

void Rng::shuffle(std::vector<std::size_t>& idx) {
  for (std::size_t i = idx.size(); i > 1; --i) {
    const std::size_t j = uniform_index(i);
    std::swap(idx[i - 1], idx[j]);
  }
}

}  // namespace apds
