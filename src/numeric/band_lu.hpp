// Banded LU with partial pivoting for sparse systems that a symmetric
// reordering brings into a narrow band, such as the MNA matrix of a long
// filter ladder.
//
// rcm_ordering() takes a matrix's sparsity pattern and returns a reverse
// Cuthill-McKee order with the band (kl sub-, ku superdiagonals) that the
// pattern has under it. BandMatrix<T> stores the reordered matrix in
// LINPACK / LAPACK gbtrf layout, but is addressed in the caller's unknown
// order, so a stamping loop writes it exactly as it would write a dense
// Matrix. BandLu<T> factors it in O(n * kl * (kl + ku)) and solves in the
// caller's order.
//
// BandLu keeps Lu's contract (lu.hpp): factor() returns a core::Result,
// try_solve rejects a right-hand side of the wrong size, a pivot below
// LuOptions::pivot_threshold is kSingular naming the failing unknown in the
// caller's order, condition_estimate() is the same max/min-pivot ratio, and
// the lu fault site keys on the same entries of the unpermuted matrix, so a
// system draws the same injected fault on either path.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/core/status.hpp"
#include "src/numeric/lu.hpp"

namespace emi::num {

// A symmetric reordering and the band it yields: unknown order[k] sits at
// band position k (pos is the inverse), and every pattern entry (r, c) has
// -kl <= pos[c] - pos[r] <= ku.
struct BandOrdering {
  std::vector<std::size_t> order;  // band position -> caller's unknown
  std::vector<std::size_t> pos;    // caller's unknown -> band position
  std::size_t kl = 0;              // subdiagonals
  std::size_t ku = 0;              // superdiagonals

  std::size_t size() const { return order.size(); }
  // Rows of band storage: kl + ku for the factor's U, kl more for the fill
  // that row interchanges bring in.
  std::size_t storage_rows() const { return 2 * kl + ku + 1; }
};

// Reverse Cuthill-McKee order of an n x n pattern given as its (row, col)
// entries, each index below n (duplicates and diagonal entries allowed).
// The pattern is symmetrized; each connected component starts from a
// pseudo-peripheral node (George-Liu), and every tie - start node,
// neighbour order - breaks by degree and then by index, so the order is a
// pure function of the pattern. kl and ku are measured on `entries` under
// the order.
BandOrdering rcm_ordering(std::size_t n,
                          std::span<const std::pair<std::size_t, std::size_t>> entries);

// True when band storage pays: its storage_rows() x n entries are less than
// a quarter of the n x n dense matrix. Below that margin the dense LU costs
// microseconds and a switch would only change result bits.
inline bool band_pays(const BandOrdering& b) { return b.storage_rows() * 4 < b.size(); }

// True when no symmetric order of the n x n pattern can make band storage
// pay, so rcm_ordering need not run: some row has d distinct off-diagonal
// columns with 4 (d + 1) >= n. Under any order that row's columns sit at d
// distinct positions off its own, so kl + ku >= d and storage_rows() >= d + 1.
bool band_cannot_pay(std::size_t n,
                     std::span<const std::pair<std::size_t, std::size_t>> entries);

template <typename T>
class BandLu;

// Band storage, column-major with storage_rows() rows per column: entry
// (i, j) of the reordered matrix lives at ab[j * ld + kl + ku + i - j]. The
// top kl rows start zero and take the factor's fill. Element access is in
// the caller's unknown order; an entry outside the ordering's band is a
// caller bug.
template <typename T>
class BandMatrix {
 public:
  explicit BandMatrix(std::shared_ptr<const BandOrdering> ordering)
      : ord_(std::move(ordering)),
        ld_(ord_->storage_rows()),
        ab_(ld_ * ord_->size(), T{}) {}

  std::size_t rows() const { return ord_->size(); }

  T& operator()(std::size_t r, std::size_t c) { return ab_[slot(r, c)]; }
  const T& operator()(std::size_t r, std::size_t c) const { return ab_[slot(r, c)]; }

 private:
  friend class BandLu<T>;

  std::size_t slot(std::size_t r, std::size_t c) const {
    const std::size_t i = ord_->pos[r];
    const std::size_t j = ord_->pos[c];
    assert(i <= j + ord_->kl && j <= i + ord_->ku);
    return j * ld_ + ord_->kl + ord_->ku + i - j;
  }

  std::shared_ptr<const BandOrdering> ord_;
  std::size_t ld_;
  std::vector<T> ab_;
};

template <typename T>
class BandLu {
 public:
  // Factorize `a` (LAPACK gbtf2: partial pivoting within the band, row
  // interchanges recorded in piv_). The error Status names the failing
  // unknown (singular) or is kInjectedFault when the lu fault site fired.
  [[nodiscard]] static core::Result<BandLu<T>> factor(BandMatrix<T> a,
                                                      const LuOptions& opt = {}) {
    BandLu<T> lu(std::move(a));
    if (core::Status st = lu.factorize(opt); !st.ok()) return st;
    return core::Result<BandLu<T>>(std::move(lu));
  }

  // max|pivot| / min|pivot|, as Lu::condition_estimate.
  double condition_estimate() const { return cond_; }

  // Solve A x = b with b and x in the caller's unknown order.
  [[nodiscard]] core::Result<std::vector<T>> try_solve(const std::vector<T>& b) const {
    const std::size_t n = a_.rows();
    if (b.size() != n) {
      return core::Status(core::ErrorCode::kInvalidArgument, "numeric.lu",
                          "solve: size mismatch");
    }
    const BandOrdering& o = *a_.ord_;
    const std::size_t kl = o.kl;
    const std::size_t kv = o.kl + o.ku;
    const std::size_t ld = a_.ld_;
    const std::vector<T>& ab = a_.ab_;
    std::vector<T> y(n);
    for (std::size_t k = 0; k < n; ++k) y[k] = b[o.order[k]];
    // Forward: replay each column's row interchange, then apply L's column
    // (unit diagonal, at most kl multipliers below it).
    for (std::size_t j = 0; j < n; ++j) {
      if (piv_[j] != j) std::swap(y[j], y[piv_[j]]);
      const std::size_t km = std::min(kl, n - 1 - j);
      const T yj = y[j];
      const T* col = ab.data() + j * ld + kv;
      for (std::size_t i = 1; i <= km; ++i) y[j + i] -= col[i] * yj;
    }
    // Back: U has kl + ku superdiagonals after the interchanges.
    for (std::size_t j = n; j-- > 0;) {
      const std::size_t base = j * ld + kv;  // entry (i, j) at ab[base + i - j]
      y[j] /= ab[base];
      const T yj = y[j];
      const std::size_t top = j > kv ? j - kv : 0;
      for (std::size_t i = top; i < j; ++i) y[i] -= ab[base + i - j] * yj;
    }
    std::vector<T> x(n);
    for (std::size_t k = 0; k < n; ++k) x[o.order[k]] = y[k];
    return x;
  }

 private:
  explicit BandLu(BandMatrix<T> a) : a_(std::move(a)), piv_(a_.rows()) {}

  [[nodiscard]] core::Status factorize(const LuOptions& opt) {
    const BandOrdering& o = *a_.ord_;
    const std::size_t n = a_.rows();
    if (core::Status st = lu_injected_fault(n, [&](std::size_t i) { return a_(i, i); }, opt);
        !st.ok()) {
      return st;
    }
    const std::size_t kl = o.kl;
    const std::size_t kv = o.kl + o.ku;
    const std::size_t ld = a_.ld_;
    std::vector<T>& ab = a_.ab_;
    double max_pivot = 0.0;
    double min_pivot = std::numeric_limits<double>::infinity();
    std::size_t ju = 0;  // last column U reaches so far
    for (std::size_t j = 0; j < n; ++j) {
      T* col = ab.data() + j * ld + kv;  // col[i] is entry (j + i, j)
      const std::size_t km = std::min(kl, n - 1 - j);
      std::size_t jp = 0;
      double best = std::abs(col[0]);
      for (std::size_t i = 1; i <= km; ++i) {
        const double mag = std::abs(col[i]);
        if (mag > best) {
          best = mag;
          jp = i;
        }
      }
      if (best < opt.pivot_threshold) return lu_singular(best, o.order[j], opt);
      max_pivot = std::max(max_pivot, best);
      min_pivot = std::min(min_pivot, best);
      piv_[j] = j + jp;
      ju = std::max(ju, std::min(j + o.ku + jp, n - 1));
      if (jp != 0) {
        // Entry (r, c) sits at ab[c * ld + kv + r - c].
        for (std::size_t c = j; c <= ju; ++c) {
          std::swap(ab[c * ld + kv + j - c], ab[c * ld + kv + j + jp - c]);
        }
      }
      const T inv_p = T{1} / col[0];
      for (std::size_t i = 1; i <= km; ++i) col[i] *= inv_p;
      for (std::size_t c = j + 1; c <= ju; ++c) {
        T* cc = ab.data() + (c * ld + kv + j - c);  // cc[i] is entry (j + i, c)
        const T u = cc[0];
        if (u == T{}) continue;
        for (std::size_t i = 1; i <= km; ++i) cc[i] -= col[i] * u;
      }
    }
    cond_ = (n == 0 || min_pivot <= 0.0) ? 1.0 : max_pivot / min_pivot;
    return {};
  }

  BandMatrix<T> a_;
  std::vector<std::size_t> piv_;  // row swapped with row j at column j
  double cond_ = 1.0;
};

}  // namespace emi::num
