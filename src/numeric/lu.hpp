// LU decomposition with partial pivoting and linear solve, templated over
// double and std::complex<double>.
//
// Status-returning throughout (Lu::factor / try_solve return core::Result):
// a singular MNA system - a floating node or an inconsistent netlist - is
// reported, never thrown, so pipelines such as the parallel AC sweep can
// skip-and-report instead of unwinding off-thread. Callers that must fail
// loudly raise the returned Status themselves.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/core/fault_injection.hpp"
#include "src/core/status.hpp"
#include "src/numeric/matrix.hpp"

namespace emi::num {

struct LuOptions {
  // A pivot magnitude below this is reported as numerically singular. Part
  // of the numeric contract (and of the lu fault-injection key), so a
  // jittered threshold re-decides injected faults on retry.
  double pivot_threshold = 1e-300;
};

template <typename T>
class Lu {
 public:
  // Factorize `a`; the error Status carries the failing column (singular)
  // or kInjectedFault when the lu fault site fired.
  [[nodiscard]] static core::Result<Lu<T>> factor(Matrix<T> a, const LuOptions& opt = {}) {
    Lu<T> lu(std::move(a));
    if (core::Status st = lu.factorize(opt); !st.ok()) return st;
    return core::Result<Lu<T>>(std::move(lu));
  }

  // max|pivot| / min|pivot| over the factorization - a cheap lower bound on
  // the condition number, good enough to flag near-singular systems.
  double condition_estimate() const { return cond_; }

  [[nodiscard]] core::Result<std::vector<T>> try_solve(const std::vector<T>& b) const {
    if (b.size() != lu_.rows()) {
      return core::Status(core::ErrorCode::kInvalidArgument, "numeric.lu",
                          "solve: size mismatch");
    }
    return solve_impl(b);
  }

 private:
  explicit Lu(Matrix<T> a) : lu_(std::move(a)), perm_(lu_.rows()) {}

  // Stable per-call identity for the lu fault site: matrix content (shape +
  // corner/center diagonal entries) and the pivot threshold. Independent of
  // threads and arrival order, distinct across an AC sweep's frequencies.
  std::uint64_t fault_key(const LuOptions& opt) const {
    const std::size_t n = lu_.rows();
    std::uint64_t h = core::fault::mix(0, static_cast<std::uint64_t>(n));
    if (n > 0) {
      h = core::fault::mix(h, std::abs(lu_(0, 0)));
      h = core::fault::mix(h, std::abs(lu_(n / 2, n / 2)));
      h = core::fault::mix(h, std::abs(lu_(n - 1, n - 1)));
    }
    return core::fault::mix(h, opt.pivot_threshold);
  }

  [[nodiscard]] core::Status factorize(const LuOptions& opt) {
    using core::ErrorCode;
    if (lu_.rows() != lu_.cols()) {
      return {ErrorCode::kInvalidArgument, "numeric.lu", "matrix not square"};
    }
    const std::size_t n = lu_.rows();
    if (core::fault::armed() &&
        core::fault::should_fire(core::FaultSite::kLu, fault_key(opt))) {
      return {ErrorCode::kInjectedFault, "numeric.lu",
              "injected singular pivot (EMI_FAULT_INJECT site lu)"};
    }
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
    double max_pivot = 0.0;
    double min_pivot = std::numeric_limits<double>::infinity();
    for (std::size_t col = 0; col < n; ++col) {
      // Partial pivot on the largest magnitude in the column.
      std::size_t pivot = col;
      double best = std::abs(lu_(col, col));
      for (std::size_t r = col + 1; r < n; ++r) {
        const double mag = std::abs(lu_(r, col));
        if (mag > best) {
          best = mag;
          pivot = r;
        }
      }
      if (best < opt.pivot_threshold) {
        return {ErrorCode::kSingular, "numeric.lu",
                "singular matrix: pivot " + std::to_string(best) + " at column " +
                    std::to_string(col) + " below threshold " +
                    std::to_string(opt.pivot_threshold)};
      }
      max_pivot = std::max(max_pivot, best);
      min_pivot = std::min(min_pivot, best);
      if (pivot != col) {
        for (std::size_t c = 0; c < n; ++c) std::swap(lu_(col, c), lu_(pivot, c));
        std::swap(perm_[col], perm_[pivot]);
      }
      const T inv_p = T{1} / lu_(col, col);
      for (std::size_t r = col + 1; r < n; ++r) {
        const T f = lu_(r, col) * inv_p;
        lu_(r, col) = f;
        if (f == T{}) continue;
        for (std::size_t c = col + 1; c < n; ++c) lu_(r, c) -= f * lu_(col, c);
      }
    }
    cond_ = (n == 0 || min_pivot <= 0.0) ? 1.0 : max_pivot / min_pivot;
    return {};
  }

  std::vector<T> solve_impl(const std::vector<T>& b) const {
    const std::size_t n = lu_.rows();
    std::vector<T> x(n);
    // Forward substitution on the permuted RHS (L has unit diagonal).
    for (std::size_t i = 0; i < n; ++i) {
      T s = b[perm_[i]];
      for (std::size_t j = 0; j < i; ++j) s -= lu_(i, j) * x[j];
      x[i] = s;
    }
    // Back substitution.
    for (std::size_t ii = n; ii-- > 0;) {
      T s = x[ii];
      for (std::size_t j = ii + 1; j < n; ++j) s -= lu_(ii, j) * x[j];
      x[ii] = s / lu_(ii, ii);
    }
    return x;
  }

  Matrix<T> lu_;
  std::vector<std::size_t> perm_;
  double cond_ = 1.0;
};

// Factor and solve in one call; never throws on numeric failure.
template <typename T>
[[nodiscard]] core::Result<std::vector<T>> try_solve(
    Matrix<T> a, const std::vector<T>& b, const LuOptions& opt = {}) {
  core::Result<Lu<T>> lu = Lu<T>::factor(std::move(a), opt);
  if (!lu.ok()) return lu.status();
  return lu.value().try_solve(b);
}

}  // namespace emi::num
