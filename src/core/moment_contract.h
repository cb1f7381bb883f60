// Debug-mode contracts on the moments flowing through ApDeepSense.
//
// Every intermediate representation in the analytic pass is a diagonal
// Gaussian, so two invariants must hold at every layer boundary: all means
// are finite, and all variances are finite and nonnegative. A violation
// means a kernel bug or a poisoned input (NaN feature, exploded weight) —
// either way the run's uncertainty numbers are garbage, and the earlier it
// is caught the closer the report is to the cause.
//
// The entry points (InferenceSession::propagate, ConvApDeepSense::propagate,
// moment_rnn) check their input unconditionally, once per call: a poisoned
// input lane ends in the same MomentContractViolation at every precision
// and kernel tier instead of a NaN row or an error from deep inside the
// pass. The per-layer sites use the APDS_MOMENT_CONTRACT macros, which
// compile away unless the build sets APDS_CHECK_MOMENTS (CMake option of
// the same name), keeping the release hot path free of the O(batch*dim)
// scan at every layer.
#pragma once

#include <cmath>
#include <sstream>
#include <string>

#include "common/error.h"
#include "core/gaussian_vec.h"

namespace apds {

/// Thrown when a propagated moment batch violates the diagonal-Gaussian
/// invariants (finite mean, finite nonnegative variance).
class MomentContractViolation : public Error {
 public:
  explicit MomentContractViolation(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] inline void throw_moment_violation(const char* where,
                                                const char* what,
                                                std::size_t row,
                                                std::size_t col, double value) {
  std::ostringstream os;
  os << "moment contract violated at " << where << ": " << what << " ["
     << row << "," << col << "] = " << value;
  throw MomentContractViolation(os.str());
}
}  // namespace detail

/// Validate a moment batch: means finite, variances finite and >= 0.
/// Throws MomentContractViolation naming the first offending element.
template <typename T>
void check_moment_contract(const MeanVarT<T>& mv, const char* where) {
  if (mv.var.rows() != mv.mean.rows() || mv.var.cols() != mv.mean.cols()) {
    std::ostringstream os;
    os << "moment contract violated at " << where
       << ": mean/var shape mismatch (" << mv.mean.rows() << "x"
       << mv.mean.cols() << " vs " << mv.var.rows() << "x" << mv.var.cols()
       << ")";
    throw MomentContractViolation(os.str());
  }
  const T* mu = mv.mean.data();
  const T* var = mv.var.data();
  const std::size_t n = mv.mean.size();
  const std::size_t cols = mv.mean.cols();
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(static_cast<double>(mu[i])))
      detail::throw_moment_violation(where, "non-finite mean", i / cols,
                                     i % cols,
                                     static_cast<double>(mu[i]));
    // NaN fails `>= 0` too, so one branch covers negative and non-finite.
    if (!(var[i] >= T(0)) ||
        !std::isfinite(static_cast<double>(var[i])))
      detail::throw_moment_violation(where, "invalid variance", i / cols,
                                     i % cols,
                                     static_cast<double>(var[i]));
  }
}

/// Raw-buffer variant for the entry points and the arena-resident session
/// path: same invariants over `n` mean/variance elements laid out with `cols` per row. A null
/// `var` checks the means of a point input only. Allocation-free on
/// success, so the zero-alloc property holds on every checked path.
template <typename T>
void check_moment_contract_buffers(const T* mu, const T* var, std::size_t n,
                                   std::size_t cols, const char* where) {
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(static_cast<double>(mu[i])))
      detail::throw_moment_violation(where, "non-finite mean", i / cols,
                                     i % cols, static_cast<double>(mu[i]));
    if (var == nullptr) continue;
    if (!(var[i] >= T(0)) || !std::isfinite(static_cast<double>(var[i])))
      detail::throw_moment_violation(where, "invalid variance", i / cols,
                                     i % cols, static_cast<double>(var[i]));
  }
}

}  // namespace apds

/// Layer-boundary contract check, compiled out unless APDS_CHECK_MOMENTS.
#if defined(APDS_CHECK_MOMENTS) && APDS_CHECK_MOMENTS
#define APDS_MOMENT_CONTRACT(mv, where) \
  ::apds::check_moment_contract((mv), (where))
#define APDS_MOMENT_CONTRACT_BUF(mu, var, n, cols, where) \
  ::apds::check_moment_contract_buffers((mu), (var), (n), (cols), (where))
#else
#define APDS_MOMENT_CONTRACT(mv, where) ((void)0)
#define APDS_MOMENT_CONTRACT_BUF(mu, var, n, cols, where) ((void)0)
#endif
