#include "src/peec/sampled_path.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "src/core/parallel.hpp"
#include "src/numeric/quadrature.hpp"

// The hot kernels below are compiled with per-ISA clones (ifunc dispatch)
// when the toolchain supports it: the distance pass is elementwise over
// correctly-rounded ops (sqrt, div, max), so wider vectors change timing but
// never bits, provided FP contraction stays off (-ffp-contract=off in this
// file's COMPILE_OPTIONS; FMA would fuse mul+add with a different rounding).
// Sanitizer builds skip the clones: ifunc resolvers run before the runtime
// initializes.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#define EMI_KERNEL_CLONES __attribute__((target_clones("default", "avx2", "avx512f")))
#define EMI_KERNEL_CLONES_ON true
#else
#define EMI_KERNEL_CLONES
#define EMI_KERNEL_CLONES_ON false
#endif

namespace emi::peec {

SegmentAxis segment_axis(const Segment& s) {
  // length() and direction() in one norm: direction() divides by the same
  // norm, so the bits are theirs. Zero-length segments get a zero
  // direction; the row kernel skips their pairs (l <= 0) before reading
  // their samples.
  const Vec3 d = s.b - s.a;
  const double l = d.norm();
  return {l, l > 0.0 ? Vec3{d.x / l, d.y / l, d.z / l} : Vec3{0.0, 0.0, 0.0},
          s.midpoint()};
}

SampledPath sample_path(const SegmentPath& path, const QuadratureOptions& opt) {
  SampledPath out;
  sample_path(path, opt, out);
  return out;
}

void sample_path(const SegmentPath& path, const QuadratureOptions& opt, SampledPath& out) {
  const std::size_t n = path.segments.size();
  // Validates the order once, before `out` is touched.
  const num::GaussRule rule = n > 0 ? num::gauss_rule(opt.order) : num::GaussRule{};
  out.order = opt.order;
  out.n_sub = std::max<std::size_t>(1, opt.subdivisions);
  const std::size_t sps = out.order * out.n_sub;
  // Sized first and written by index: a reused `out` keeps its arrays.
  for (std::vector<double>* v : {&out.px, &out.py, &out.pz, &out.wt}) v->resize(n * sps);
  out.half.resize(n * out.n_sub);
  for (std::vector<double>* v :
       {&out.dx, &out.dy, &out.dz, &out.ax, &out.ay, &out.az, &out.mx, &out.my,
        &out.mz, &out.len, &out.rad, &out.wgt}) {
    v->resize(n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const Segment& s = path.segments[i];
    const auto [l, d, m] = segment_axis(s);
    out.len[i] = l;
    out.rad[i] = s.radius;
    out.wgt[i] = s.weight;
    out.dx[i] = d.x;
    out.dy[i] = d.y;
    out.dz[i] = d.z;
    out.ax[i] = s.a.x;
    out.ay[i] = s.a.y;
    out.az[i] = s.a.z;
    out.mx[i] = m.x;
    out.my[i] = m.y;
    out.mz[i] = m.z;
    for (std::size_t si = 0; si < out.n_sub; ++si) {
      // The exact subinterval/abscissa expressions of the legacy kernel, so
      // the precomputed samples carry identical bits.
      const double a1 = l * static_cast<double>(si) / static_cast<double>(out.n_sub);
      const double b1 =
          l * static_cast<double>(si + 1) / static_cast<double>(out.n_sub);
      const double half = 0.5 * (b1 - a1);
      const double mid = 0.5 * (a1 + b1);
      out.half[i * out.n_sub + si] = half;
      const std::size_t base = i * sps + si * out.order;
      for (std::size_t k = 0; k < out.order; ++k) {
        const Vec3 p = s.a + d * (mid + half * rule.nodes[k]);
        out.px[base + k] = p.x;
        out.py[base + k] = p.y;
        out.pz[base + k] = p.z;
        out.wt[base + k] = rule.weights[k];
      }
    }
  }
}

namespace {

// The row kernel (see sampled_path.hpp): M(i, j) of segment i of A against
// the w segments j = j0 .. j0 + w - 1 of B, written to m[j - j0]; column c
// is segment j0 + c. Blocking only reorders which independent per-pair
// accumulators are updated when; each pair keeps mutual_neumann's operation
// sequence - same guard, same association per (subinterval, sample) - and
// so its bits. `buf` holds w * (2 * ns2 + B.n_sub) doubles and `runs`
// w + 1 entries, both caller scratch. Nothing here allocates or throws: an
// exception that leaves a target_clones function terminates the process.
//
// The body is a template over B's quadrature shape: the dispatcher below
// instantiates it with integral_constant order/subdivision counts for the
// common shapes, which turns the accumulation pass into straight-line code,
// and with the runtime values as a generic fallback. Same expressions either
// way, so same bits.
constexpr std::size_t kBlockSegs = 16;

template <typename Ord2T, typename Sub2T>
__attribute__((always_inline)) inline void pair_row_body(
    const SampledPath& A, std::size_t i, const SampledPath& B, std::size_t j0,
    std::size_t w, const unsigned char* covered, double* m_out, double* buf,
    std::size_t* runs, detail::PairTally& rc, Ord2T ord2_t, Sub2T nsub2_t) {
  const std::size_t ns1 = A.samples_per_segment();
  const std::size_t ord2 = ord2_t;
  const std::size_t nsub2 = nsub2_t;
  const std::size_t ns2 = ord2 * nsub2;
  // The scratch blocks are caller-owned and distinct from every path array,
  // so restrict lets the compiler keep loop invariants in registers across
  // the stores.
  double* __restrict__ m = m_out;              // per-pair integral, then value
  double* __restrict__ tmp = buf;              // w[b]/r, one slot per sample
  double* __restrict__ guard = tmp + w * ns2;  // per-sample radius guard
  double* __restrict__ acc = guard + w * ns2;  // per (column, sj) accumulator
  const double* __restrict__ bpx = B.px.data() + j0 * ns2;
  const double* __restrict__ bpy = B.py.data() + j0 * ns2;
  const double* __restrict__ bpz = B.pz.data() + j0 * ns2;
  const double* __restrict__ bwt = B.wt.data() + j0 * ns2;
  const double* __restrict__ bhalf = B.half.data() + j0 * nsub2;

  const double l1 = A.len[i];
  const double adx = A.dx[i];
  const double ady = A.dy[i];
  const double adz = A.dz[i];
  const double rad1 = A.rad[i];

  // Classification; runs[2r], runs[2r + 1] bound run r's columns.
  std::size_t nruns = 0;
  bool open = false;
  for (std::size_t c = 0; c < w; ++c) {
    const std::size_t j = j0 + c;
    m[c] = 0.0;
    const double dot = adx * B.dx[j] + ady * B.dy[j] + adz * B.dz[j];
    if ((covered != nullptr && covered[c]) || l1 <= 0.0 || B.len[j] <= 0.0 ||
        std::fabs(dot) < 1e-12) {
      if (open) runs[2 * nruns++ + 1] = c;
      open = false;
      continue;
    }
    if (!open) runs[2 * nruns] = c;
    open = true;
    const double g = std::max(1e-6, std::sqrt(rad1 * B.rad[j]));
    ++rc.exact_pairs;
    rc.sample_evals += static_cast<std::uint64_t>(ns1) * ns2;
    for (std::size_t b = 0; b < ns2; ++b) guard[c * ns2 + b] = g;
  }
  if (open) runs[2 * nruns++ + 1] = w;

  const double* __restrict__ apx = A.px.data() + i * ns1;
  const double* __restrict__ apy = A.py.data() + i * ns1;
  const double* __restrict__ apz = A.pz.data() + i * ns1;
  const double* __restrict__ awt = A.wt.data() + i * ns1;
  const double* __restrict__ ahalf = A.half.data() + i * A.n_sub;
  // Block [cb, cb + kBlockSegs) holds the parts lo[q] .. hi[q] of the runs
  // that meet it; run r is the first that ends inside or after it.
  std::size_t r = 0;
  std::size_t cb = nruns > 0 ? runs[0] : 0;
  while (r < nruns) {
    const std::size_t ce = cb + kBlockSegs;
    std::size_t lo[kBlockSegs];
    std::size_t hi[kBlockSegs];
    std::size_t nq = 0;
    for (std::size_t q = r; q < nruns && runs[2 * q] < ce; ++q, ++nq) {
      lo[nq] = std::max(runs[2 * q], cb);
      hi[nq] = std::min(runs[2 * q + 1], ce);
    }
    for (std::size_t si = 0; si < A.n_sub; ++si) {
      for (std::size_t q = 0; q < nq; ++q) {
        for (std::size_t k = lo[q] * nsub2; k < hi[q] * nsub2; ++k) acc[k] = 0.0;
      }
      for (std::size_t a = 0; a < A.order; ++a) {
        const std::size_t ia = si * A.order + a;
        const double x = apx[ia];
        const double y = apy[ia];
        const double z = apz[ia];
        // Distance pass over the block's exact samples, folding in the inner
        // node weight: correctly-rounded elementwise ops only, so the
        // compiler vectorizes freely without changing bits.
        for (std::size_t q = 0; q < nq; ++q) {
          for (std::size_t b = lo[q] * ns2; b < hi[q] * ns2; ++b) {
            const double ddx = x - bpx[b];
            const double ddy = y - bpy[b];
            const double ddz = z - bpz[b];
            tmp[b] = bwt[b] *
                     (1.0 / std::max(std::sqrt(ddx * ddx + ddy * ddy + ddz * ddz), guard[b]));
          }
        }
        // Accumulation pass: mutual_neumann's association per pair - inner
        // weighted sum per subinterval, times its jacobian, times the outer
        // node weight.
        const double wa = awt[ia];
        for (std::size_t q = 0; q < nq; ++q) {
          for (std::size_t c = lo[q]; c < hi[q]; ++c) {
            for (std::size_t sj = 0; sj < nsub2; ++sj) {
              const double* __restrict__ t = tmp + c * ns2 + sj * ord2;
              double s2 = 0.0;
              for (std::size_t b = 0; b < ord2; ++b) s2 += t[b];
              acc[c * nsub2 + sj] += wa * (s2 * bhalf[c * nsub2 + sj]);
            }
          }
        }
      }
      const double h1 = ahalf[si];
      for (std::size_t q = 0; q < nq; ++q) {
        for (std::size_t c = lo[q]; c < hi[q]; ++c) {
          for (std::size_t sj = 0; sj < nsub2; ++sj) m[c] += acc[c * nsub2 + sj] * h1;
        }
      }
    }
    while (r < nruns && runs[2 * r + 1] <= ce) ++r;
    if (r < nruns) cb = std::max(ce, runs[2 * r]);
  }

  // dl1.dl2 = dot * dt1 * dt2; the mm-valued integral (mm^2/mm = mm) to
  // metres.
  for (std::size_t q = 0; q < nruns; ++q) {
    for (std::size_t c = runs[2 * q]; c < runs[2 * q + 1]; ++c) {
      const std::size_t j = j0 + c;
      const double dot = adx * B.dx[j] + ady * B.dy[j] + adz * B.dz[j];
      m[c] = kMu0 / (4.0 * geom::kPi) * dot * m[c] * kMmToM;
    }
  }
}

// Concrete per-ISA-cloned entry points. target_clones does not apply to
// templates, so each wrapper instantiates the body (always_inline) under its
// own target; the shape constants then drive full unrolling per clone.
#define EMI_ROW_ARGS                                                          \
  const SampledPath &A, std::size_t i, const SampledPath &B, std::size_t j0, \
      std::size_t w, const unsigned char *covered, double *m, double *buf,    \
      std::size_t *runs, detail::PairTally &rc
#define EMI_ROW_PASS A, i, B, j0, w, covered, m, buf, runs, rc
EMI_KERNEL_CLONES
void pair_row_o4s2(EMI_ROW_ARGS) {
  pair_row_body(EMI_ROW_PASS, std::integral_constant<std::size_t, 4>{},
                std::integral_constant<std::size_t, 2>{});
}
EMI_KERNEL_CLONES
void pair_row_o6s2(EMI_ROW_ARGS) {
  pair_row_body(EMI_ROW_PASS, std::integral_constant<std::size_t, 6>{},
                std::integral_constant<std::size_t, 2>{});
}
EMI_KERNEL_CLONES
void pair_row_generic(EMI_ROW_ARGS) { pair_row_body(EMI_ROW_PASS, B.order, B.n_sub); }

// The row kernel on columns [j0, j1) through `s`, which grows here, outside
// the clones, to fit. Returns the pair values, s.values[0 .. j1 - j0).
const double* pair_row(const SampledPath& A, std::size_t i, const SampledPath& B,
                       std::size_t j0, std::size_t j1, const unsigned char* covered,
                       RowScratch& s, detail::PairTally& rc) {
  const std::size_t w = j1 - j0;
  const std::size_t need = w * (2 * B.samples_per_segment() + B.n_sub);
  if (s.values.size() < w) s.values.resize(w);
  if (s.buf.size() < need) s.buf.resize(need);
  if (s.runs.size() < w + 1) s.runs.resize(w + 1);
  void (*kernel)(EMI_ROW_ARGS) = pair_row_generic;
  if (B.order == 4 && B.n_sub == 2) kernel = pair_row_o4s2;
  if (B.order == 6 && B.n_sub == 2) kernel = pair_row_o6s2;
  kernel(A, i, B, j0, w, covered, s.values.data(), s.buf.data(), s.runs.data(), rc);
  return s.values.data();
}
#undef EMI_ROW_PASS
#undef EMI_ROW_ARGS

}  // namespace

double sampled_mutual_exact(const SampledPath& A, std::size_t i,
                            const SampledPath& B, std::size_t j) {
  RowScratch s;
  detail::PairTally tally;
  const double m = *pair_row(A, i, B, j, j + 1, nullptr, s, tally);
  tally.publish();
  return m;
}

double sampled_mutual_row(const SampledPath& A, std::size_t i, const SampledPath& B,
                          const unsigned char* covered, RowScratch& scratch,
                          detail::PairTally& tally) {
  const std::size_t n2 = B.segment_count();
  const double* m = pair_row(A, i, B, 0, n2, covered, scratch, tally);
  // Ascending j, exactly the serial reference loop.
  double r = 0.0;
  const double wi = A.wgt[i];
  for (std::size_t j = 0; j < n2; ++j) {
    if (covered != nullptr && covered[j]) continue;
    r += wi * B.wgt[j] * m[j];
  }
  return r;
}

double sampled_self_row(const SampledPath& P, std::size_t i, RowScratch& scratch,
                        detail::PairTally& tally) {
  const double wi = P.wgt[i];
  double v = wi * wi * self_inductance_wire(P.len[i], P.rad[i]);
  const std::size_t n = P.segment_count();
  const double* m = pair_row(P, i, P, i + 1, n, nullptr, scratch, tally);
  for (std::size_t j = i + 1; j < n; ++j) v += 2.0 * wi * P.wgt[j] * m[j - i - 1];
  return v;
}

double path_mutual_sampled(const SampledPath& A, const SampledPath& B) {
  const SampledPath* a = &A;
  const SampledPath* b = &B;
  double out = 0.0;
  path_mutual_sampled_many({&a, 1}, {&b, 1}, {&out, 1});
  return out;
}

namespace {

// The flat row schedule of both batches below: item p owns rows_of[p]
// consecutive rows of one flat row list, and row(p, i, tally) returns row i
// of item p, counting its pairs into `tally`, which is published once per
// row. Every row runs in one parallel region (serially when the batch holds
// fewer than kParallelPairThreshold segment pairs in total); each row
// writes its own slot and grain 1 keeps the chunking fixed, so neither the
// schedule nor the thread count reaches the results. Each item then folds
// its row totals serially in row order: the legacy accumulation order, so
// neither the threshold, the batch around an item nor the schedule changes
// its bits. Under a stopped CancelScope skipped rows stay 0.0.
template <typename Row>
void run_rows(std::span<const std::size_t> rows_of, std::size_t seg_pairs,
              std::span<double> out, const Row& row) {
  const std::size_t n = rows_of.size();
  std::vector<std::size_t> first_row(n + 1, 0);
  for (std::size_t p = 0; p < n; ++p) first_row[p + 1] = first_row[p] + rows_of[p];
  const std::size_t rows = first_row[n];
  std::vector<std::size_t> item_of_row(rows);
  for (std::size_t p = 0; p < n; ++p) {
    std::fill(item_of_row.begin() + static_cast<std::ptrdiff_t>(first_row[p]),
              item_of_row.begin() + static_cast<std::ptrdiff_t>(first_row[p + 1]), p);
  }
  std::vector<double> row_total(rows, 0.0);
  const auto run = [&](std::size_t r) {
    const std::size_t p = item_of_row[r];
    detail::PairTally tally;
    row_total[r] = row(p, r - first_row[p], tally);
    tally.publish();
  };
  if (seg_pairs < kParallelPairThreshold) {
    for (std::size_t r = 0; r < rows; ++r) run(r);
  } else {
    core::parallel_for(0, rows, run, 1);
  }
  for (std::size_t p = 0; p < n; ++p) {
    double total = 0.0;
    for (std::size_t r = first_row[p]; r < first_row[p + 1]; ++r) total += row_total[r];
    out[p] = total;
  }
}

}  // namespace

void path_mutual_sampled_many(std::span<const SampledPath* const> a,
                              std::span<const SampledPath* const> b,
                              std::span<double> out) {
  if (b.size() != a.size() || out.size() != a.size()) {
    throw std::invalid_argument("path_mutual_sampled_many: span lengths differ");
  }
  // Pair p owns one row per segment of a[p]; a pair with an empty side owns
  // none and folds to 0.0.
  std::vector<std::size_t> rows_of(a.size());
  std::size_t seg_pairs = 0;
  for (std::size_t p = 0; p < a.size(); ++p) {
    const std::size_t n1 = a[p]->segment_count();
    const std::size_t n2 = b[p]->segment_count();
    rows_of[p] = n2 == 0 ? 0 : n1;
    seg_pairs += n1 * n2;
  }
  run_rows(rows_of, seg_pairs, out,
           [&](std::size_t p, std::size_t i, detail::PairTally& tally) {
             RowScratch scratch;
             return sampled_mutual_row(*a[p], i, *b[p], nullptr, scratch, tally);
           });
}

void path_inductance_sampled_many(std::span<const SampledPath* const> paths,
                                  std::span<double> out) {
  if (out.size() != paths.size()) {
    throw std::invalid_argument("path_inductance_sampled_many: span lengths differ");
  }
  // Path p owns one row per segment: the self term plus the upper-triangle
  // mutual terms of that segment.
  std::vector<std::size_t> rows_of(paths.size());
  std::size_t seg_pairs = 0;
  for (std::size_t p = 0; p < paths.size(); ++p) {
    rows_of[p] = paths[p]->segment_count();
    seg_pairs += rows_of[p] * rows_of[p];
  }
  run_rows(rows_of, seg_pairs, out,
           [&](std::size_t p, std::size_t i, detail::PairTally& tally) {
             RowScratch scratch;
             return sampled_self_row(*paths[p], i, scratch, tally);
           });
}

bool kernel_clones_enabled() { return EMI_KERNEL_CLONES_ON; }

}  // namespace emi::peec
