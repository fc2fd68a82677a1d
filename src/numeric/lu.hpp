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

// The lu fault site, shared by Lu and BandLu so a system draws the same
// injected fault on either path. The key is the system's size, the
// magnitudes of its first, center and last diagonal entries in the caller's
// unknown order (before any reordering or pivoting; `diag(i)` reads entry
// (i, i)) and the pivot threshold: a function of the matrix content alone,
// never of threads or arrival order. Returns kInjectedFault when the site
// fires, OK otherwise.
template <typename Diag>
[[nodiscard]] core::Status lu_injected_fault(std::size_t n, const Diag& diag,
                                             const LuOptions& opt) {
  if (!core::fault::armed()) return {};
  std::uint64_t h = core::fault::mix(0, static_cast<std::uint64_t>(n));
  if (n > 0) {
    h = core::fault::mix(h, std::abs(diag(0)));
    h = core::fault::mix(h, std::abs(diag(n / 2)));
    h = core::fault::mix(h, std::abs(diag(n - 1)));
  }
  h = core::fault::mix(h, opt.pivot_threshold);
  if (!core::fault::should_fire(core::FaultSite::kLu, h)) return {};
  return {core::ErrorCode::kInjectedFault, "numeric.lu",
          "injected singular pivot (EMI_FAULT_INJECT site lu)"};
}

// The kSingular Status for a pivot below the threshold; `column` names the
// unknown in the caller's order.
inline core::Status lu_singular(double pivot, std::size_t column, const LuOptions& opt) {
  return {core::ErrorCode::kSingular, "numeric.lu",
          "singular matrix: pivot " + std::to_string(pivot) + " at column " +
              std::to_string(column) + " below threshold " +
              std::to_string(opt.pivot_threshold)};
}

// Row-pivoted LU. The elimination is resumable: start() sets it up,
// advance() runs its steps, and factor() is the two in one call. Step k
// reads only column k (its pivot search, row swap and multipliers) and
// updates each later column from that column and its own entries, so two
// matrices that agree in columns 0..m-1 take the same first m steps. A
// caller holding one matrix's state after those steps can copy it,
// replace_column() the columns where a second matrix differs, and advance()
// to finish the second matrix's factorization bit for bit as factor() would
// (ckt::ac_coupling_probe_sweep does this per frequency point).
template <typename T>
class Lu {
 public:
  // Factorize `a`; the error Status carries the failing column (singular)
  // or kInjectedFault when the lu fault site fired.
  [[nodiscard]] static core::Result<Lu<T>> factor(Matrix<T> a, const LuOptions& opt = {}) {
    core::Result<Lu<T>> lu = start(std::move(a), opt);
    if (!lu.ok()) return lu;
    if (core::Status st = lu.value().advance(lu.value().size()); !st.ok()) return st;
    return lu;
  }

  // An elimination of `a` with no step done. Rejects a non-square `a` and
  // draws the lu fault site on `a`'s diagonal; advance() does the rest.
  [[nodiscard]] static core::Result<Lu<T>> start(Matrix<T> a, const LuOptions& opt = {}) {
    using core::ErrorCode;
    if (a.rows() != a.cols()) {
      return core::Status(ErrorCode::kInvalidArgument, "numeric.lu", "matrix not square");
    }
    const std::size_t n = a.rows();
    if (core::Status st = lu_injected_fault(n, [&](std::size_t i) { return a(i, i); }, opt);
        !st.ok()) {
      return st;
    }
    return Lu<T>(std::move(a), opt);
  }

  // Run elimination steps until `stop` of them (at most size()) are done.
  // A pivot below the threshold stops at that step with kSingular naming
  // the column and leaves the state as it was, so a later call fails the
  // same way.
  [[nodiscard]] core::Status advance(std::size_t stop) {
    const std::size_t n = lu_.rows();
    for (stop = std::min(stop, n); step_ < stop; ++step_) {
      const std::size_t col = step_;
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
      if (best < opt_.pivot_threshold) return lu_singular(best, col, opt_);
      max_pivot_ = std::max(max_pivot_, best);
      min_pivot_ = std::min(min_pivot_, best);
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
    return {};
  }

  // Overwrite column c, which no done step has eliminated (c >= steps()),
  // with `col` in the original row order, carried through the done steps:
  // their row swaps, then their multipliers in step order, skipping a zero
  // multiplier as the elimination does. That is bit for bit the column the
  // same steps leave in a matrix whose column c is `col`.
  void replace_column(std::size_t c, const std::vector<T>& col) {
    assert(c >= step_ && col.size() == lu_.rows());
    const std::size_t n = lu_.rows();
    for (std::size_t i = 0; i < n; ++i) lu_(i, c) = col[perm_[i]];
    for (std::size_t k = 0; k < step_; ++k) {
      for (std::size_t r = k + 1; r < n; ++r) {
        const T f = lu_(r, k);
        if (f == T{}) continue;
        lu_(r, c) -= f * lu_(k, c);
      }
    }
  }

  std::size_t size() const { return lu_.rows(); }
  std::size_t steps() const { return step_; }

  // The factors in place (U on and above the diagonal, the unit-diagonal
  // L's multipliers below it, rows in pivot order) and the pivot order:
  // row i of the factors is row perm()[i] of the input.
  const Matrix<T>& factors() const { return lu_; }
  const std::vector<std::size_t>& perm() const { return perm_; }

  // max|pivot| / min|pivot| over the factorization - a cheap lower bound on
  // the condition number, good enough to flag near-singular systems.
  double condition_estimate() const {
    return (step_ == 0 || min_pivot_ <= 0.0) ? 1.0 : max_pivot_ / min_pivot_;
  }

  [[nodiscard]] core::Result<std::vector<T>> try_solve(const std::vector<T>& b) const {
    if (b.size() != lu_.rows()) {
      return core::Status(core::ErrorCode::kInvalidArgument, "numeric.lu",
                          "solve: size mismatch");
    }
    if (step_ != lu_.rows()) {
      return core::Status(core::ErrorCode::kFailedPrecondition, "numeric.lu",
                          "solve: factorization incomplete");
    }
    return solve_impl(b);
  }

 private:
  Lu(Matrix<T> a, const LuOptions& opt) : lu_(std::move(a)), perm_(lu_.rows()), opt_(opt) {
    for (std::size_t i = 0; i < perm_.size(); ++i) perm_[i] = i;
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
  LuOptions opt_;
  std::size_t step_ = 0;  // elimination steps done
  double max_pivot_ = 0.0;
  double min_pivot_ = std::numeric_limits<double>::infinity();
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
