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
#else
#define EMI_KERNEL_CLONES
#endif

namespace emi::peec {

namespace {

// Scratch for the per-pair distance/accumulation passes: covers order 8 x
// 8 subdivisions on the stack; anything larger falls back to the heap.
constexpr std::size_t kStackSamples = 64;

}  // namespace

SegmentAxis segment_axis(const Segment& s) {
  const double l = s.length();
  // Zero-length segments get a zero direction; every pair kernel
  // early-outs on l <= 0 before reading their samples.
  return {l, l > 0.0 ? s.direction() : Vec3{0.0, 0.0, 0.0}, s.midpoint()};
}

SampledPath sample_path(const SegmentPath& path, const QuadratureOptions& opt) {
  SampledPath out;
  out.order = opt.order;
  out.n_sub = std::max<std::size_t>(1, opt.subdivisions);
  const std::size_t n = path.segments.size();
  if (n == 0) return out;
  const num::GaussRule rule = num::gauss_rule(opt.order);  // validates once
  const std::size_t sps = out.order * out.n_sub;
  out.px.reserve(n * sps);
  out.py.reserve(n * sps);
  out.pz.reserve(n * sps);
  out.wt.reserve(n * sps);
  out.half.reserve(n * out.n_sub);
  for (std::vector<double>* v :
       {&out.dx, &out.dy, &out.dz, &out.ax, &out.ay, &out.az, &out.mx, &out.my,
        &out.mz, &out.len, &out.rad, &out.wgt}) {
    v->reserve(n);
  }
  for (const Segment& s : path.segments) {
    const auto [l, d, m] = segment_axis(s);
    out.len.push_back(l);
    out.rad.push_back(s.radius);
    out.wgt.push_back(s.weight);
    out.dx.push_back(d.x);
    out.dy.push_back(d.y);
    out.dz.push_back(d.z);
    out.ax.push_back(s.a.x);
    out.ay.push_back(s.a.y);
    out.az.push_back(s.a.z);
    out.mx.push_back(m.x);
    out.my.push_back(m.y);
    out.mz.push_back(m.z);
    for (std::size_t si = 0; si < out.n_sub; ++si) {
      // The exact subinterval/abscissa expressions of the legacy kernel, so
      // the precomputed samples carry identical bits.
      const double a1 = l * static_cast<double>(si) / static_cast<double>(out.n_sub);
      const double b1 =
          l * static_cast<double>(si + 1) / static_cast<double>(out.n_sub);
      const double half = 0.5 * (b1 - a1);
      const double mid = 0.5 * (a1 + b1);
      out.half.push_back(half);
      for (std::size_t k = 0; k < out.order; ++k) {
        const Vec3 p = s.a + d * (mid + half * rule.nodes[k]);
        out.px.push_back(p.x);
        out.py.push_back(p.y);
        out.pz.push_back(p.z);
        out.wt.push_back(rule.weights[k]);
      }
    }
  }
  return out;
}

double sampled_mutual_exact(const SampledPath& A, std::size_t i,
                            const SampledPath& B, std::size_t j) {
  detail::PairTally tally;
  const double m = sampled_mutual_exact(A, i, B, j, tally);
  tally.publish();
  return m;
}

EMI_KERNEL_CLONES
double sampled_mutual_exact(const SampledPath& A, std::size_t i,
                            const SampledPath& B, std::size_t j,
                            detail::PairTally& tally) {
  const double l1 = A.len[i];
  const double l2 = B.len[j];
  if (l1 <= 0.0 || l2 <= 0.0) return 0.0;
  const double dot = A.dx[i] * B.dx[j] + A.dy[i] * B.dy[j] + A.dz[i] * B.dz[j];
  // Orthogonal current elements do not couple; skip the integral entirely.
  if (std::fabs(dot) < 1e-12) return 0.0;
  const double guard = std::max(1e-6, std::sqrt(A.rad[i] * B.rad[j]));

  const std::size_t ns1 = A.samples_per_segment();
  const std::size_t ns2 = B.samples_per_segment();
  const double* apx = A.px.data() + i * ns1;
  const double* apy = A.py.data() + i * ns1;
  const double* apz = A.pz.data() + i * ns1;
  const double* awt = A.wt.data() + i * ns1;
  const double* bpx = B.px.data() + j * ns2;
  const double* bpy = B.py.data() + j * ns2;
  const double* bpz = B.pz.data() + j * ns2;
  const double* bwt = B.wt.data() + j * ns2;
  const double* ahalf = A.half.data() + i * A.n_sub;
  const double* bhalf = B.half.data() + j * B.n_sub;

  double stack[2 * kStackSamples];
  std::vector<double> heap;
  double* tmp = stack;
  double* acc = stack + kStackSamples;
  if (ns2 > kStackSamples) {
    heap.resize(ns2 + B.n_sub);
    tmp = heap.data();
    acc = heap.data() + ns2;
  }

  double integral_mm = 0.0;  // integral of dl1.dl2/|r| with lengths in mm
  std::size_t ia = 0;
  for (std::size_t si = 0; si < A.n_sub; ++si) {
    for (std::size_t sj = 0; sj < B.n_sub; ++sj) acc[sj] = 0.0;
    for (std::size_t a = 0; a < A.order; ++a, ++ia) {
      const double x = apx[ia];
      const double y = apy[ia];
      const double z = apz[ia];
      // Distance pass: elementwise over segment j's whole sample block. No
      // loop-carried dependence, and sqrt/div/max are correctly rounded
      // elementwise ops, so the compiler may vectorize this freely without
      // changing a bit of the result.
      for (std::size_t b = 0; b < ns2; ++b) {
        const double ddx = x - bpx[b];
        const double ddy = y - bpy[b];
        const double ddz = z - bpz[b];
        tmp[b] = 1.0 / std::max(std::sqrt(ddx * ddx + ddy * ddy + ddz * ddz), guard);
      }
      // Accumulation pass: the legacy kernel's association exactly - inner
      // weighted sum per subinterval, times its jacobian, times the outer
      // node weight.
      const double wa = awt[ia];
      for (std::size_t sj = 0; sj < B.n_sub; ++sj) {
        const double* w = bwt + sj * B.order;
        const double* t = tmp + sj * B.order;
        double s2 = 0.0;
        for (std::size_t b = 0; b < B.order; ++b) s2 += w[b] * t[b];
        acc[sj] += wa * (s2 * bhalf[sj]);
      }
    }
    const double h1 = ahalf[si];
    for (std::size_t sj = 0; sj < B.n_sub; ++sj) integral_mm += acc[sj] * h1;
  }
  ++tally.exact_pairs;
  tally.sample_evals += static_cast<std::uint64_t>(ns1) * ns2;
  return kMu0 / (4.0 * geom::kPi) * dot * integral_mm * kMmToM;
}

namespace {

// How each segment pair of a row is served.
enum : unsigned char { kPairSkip = 0, kPairExact = 1 };

// Mutual inductance of segment i of A against all of B, returned as the
// row sum  sum_j wgt_i * wgt_j * M(i, j)  with j ascending - the exact
// fold order of the serial reference loop.
//
// The payoff over per-pair kernel calls is the distance pass: one outer
// sample is differenced against B's *entire* contiguous sample block in a
// single flat loop (trip count n2 * samples_per_segment instead of
// samples_per_segment), so the divider/sqrt unit runs at throughput instead
// of round-trip latency. Every arithmetic step is elementwise-identical to
// sampled_mutual_exact - same guard, same accumulation association per
// (subinterval, sample) - so each pair's value carries the same bits.
//
// `buf` holds (2 * n2 * ns2 + n2 * n_sub + n2) doubles, `cls` n2 bytes;
// both are caller scratch so parallel rows never share. The row's pairs are
// counted into `rc`, which the caller publishes once per row.
//
// The body is a template over B's quadrature shape: the dispatcher below
// instantiates it with integral_constant order/subdivision counts for the
// common shapes, which turns the accumulation pass into straight-line code
// (the four-term weighted sums fully unroll), and with the runtime values as
// a generic fallback. Same expressions either way, so same bits.
template <typename Ord2T, typename Sub2T>
__attribute__((always_inline)) inline double sampled_mutual_row_body(
    const SampledPath& A, std::size_t i, const SampledPath& B, double* buf,
    unsigned char* cls, detail::PairTally& rc, Ord2T ord2_t, Sub2T nsub2_t) {
  const std::size_t n2 = B.segment_count();
  const std::size_t ns1 = A.samples_per_segment();
  const std::size_t ns2 = static_cast<std::size_t>(ord2_t) * nsub2_t;
  const std::size_t nsB = n2 * ns2;
  // The scratch blocks are caller-owned and distinct from every path array,
  // so restrict lets the compiler keep loop invariants in registers across
  // the stores.
  const std::size_t nsub2 = nsub2_t;
  double* __restrict__ tmp = buf;      // w[b]/r row, one slot per B sample
  double* __restrict__ guard = tmp + nsB;  // per-sample radius guard
  double* __restrict__ acc = guard + nsB;  // per (j, sj) inner accumulator
  double* __restrict__ integ = acc + n2 * nsub2;  // per-pair integral (mm)

  const double l1 = A.len[i];
  const double adx = A.dx[i];
  const double ady = A.dy[i];
  const double adz = A.dz[i];
  const double rad1 = A.rad[i];

  // Classify every pair of the row up front: exact pairs get their guard
  // block and zeroed accumulators, the rest are skipped.
  std::size_t jlo = n2;  // first/last exact pair: the distance pass only
  std::size_t jhi = 0;   // needs to cover their sample range
  for (std::size_t j = 0; j < n2; ++j) {
    const double dot = adx * B.dx[j] + ady * B.dy[j] + adz * B.dz[j];
    if (l1 <= 0.0 || B.len[j] <= 0.0 || std::fabs(dot) < 1e-12) {
      cls[j] = kPairSkip;
      continue;
    }
    const double g = std::max(1e-6, std::sqrt(rad1 * B.rad[j]));
    cls[j] = kPairExact;
    ++rc.exact_pairs;
    rc.sample_evals += static_cast<std::uint64_t>(ns1) * ns2;
    for (std::size_t b = 0; b < ns2; ++b) guard[j * ns2 + b] = g;
    integ[j] = 0.0;
    jlo = std::min(jlo, j);
    jhi = j;
  }

  if (jlo <= jhi) {
    const double* __restrict__ bpx = B.px.data();
    const double* __restrict__ bpy = B.py.data();
    const double* __restrict__ bpz = B.pz.data();
    const double* __restrict__ bwt = B.wt.data();
    const double* __restrict__ bhalf = B.half.data();
    const std::size_t ord2 = ord2_t;
    const std::size_t ia0 = i * ns1;
    // Process B in chunks of segments small enough that a chunk's sample
    // arrays stay L1-resident across every outer sample of segment i,
    // instead of streaming all of B once per outer sample. Chunking only
    // reorders WHICH independent per-pair accumulators are updated when;
    // each pair's own operation sequence - (si, a) order, per-subinterval
    // fold - is untouched, so the bits are too.
    constexpr std::size_t kChunkSegs = 16;
    for (std::size_t jc = jlo; jc <= jhi; jc += kChunkSegs) {
      const std::size_t jend = std::min(jhi + 1, jc + kChunkSegs);
      const std::size_t blo = jc * ns2;
      const std::size_t bhi = jend * ns2;
      for (std::size_t si = 0; si < A.n_sub; ++si) {
        for (std::size_t k = jc * nsub2; k < jend * nsub2; ++k) acc[k] = 0.0;
        for (std::size_t a = 0; a < A.order; ++a) {
          const std::size_t ia = ia0 + si * A.order + a;
          const double x = A.px[ia];
          const double y = A.py[ia];
          const double z = A.pz[ia];
          // Distance pass across the chunk's samples, folding in the inner
          // node weight (the first multiply of the legacy kernel's weighted
          // sum). No loop-carried dependence and only correctly-rounded
          // elementwise ops, so the compiler vectorizes freely without
          // changing bits.
          for (std::size_t b = blo; b < bhi; ++b) {
            const double ddx = x - bpx[b];
            const double ddy = y - bpy[b];
            const double ddz = z - bpz[b];
            tmp[b] = bwt[b] *
                     (1.0 / std::max(std::sqrt(ddx * ddx + ddy * ddy + ddz * ddz),
                                     guard[b]));
          }
          // Accumulation pass: the legacy kernel's association per pair -
          // inner weighted sum per subinterval, times its jacobian, times
          // the outer node weight.
          const double wa = A.wt[ia];
          for (std::size_t j = jc; j < jend; ++j) {
            if (cls[j] != kPairExact) continue;
            for (std::size_t sj = 0; sj < nsub2; ++sj) {
              const double* __restrict__ t = tmp + j * ns2 + sj * ord2;
              double s2 = 0.0;
              for (std::size_t b = 0; b < ord2; ++b) s2 += t[b];
              acc[j * nsub2 + sj] += wa * (s2 * bhalf[j * nsub2 + sj]);
            }
          }
        }
        const double h1 = A.half[i * A.n_sub + si];
        for (std::size_t j = jc; j < jend; ++j) {
          if (cls[j] != kPairExact) continue;
          for (std::size_t sj = 0; sj < nsub2; ++sj) {
            integ[j] += acc[j * nsub2 + sj] * h1;
          }
        }
      }
    }
  }

  // Row fold in ascending-j order, exactly like the serial reference loop.
  double r = 0.0;
  const double wi = A.wgt[i];
  for (std::size_t j = 0; j < n2; ++j) {
    double pair = 0.0;
    if (cls[j] == kPairExact) {
      const double dot = adx * B.dx[j] + ady * B.dy[j] + adz * B.dz[j];
      pair = kMu0 / (4.0 * geom::kPi) * dot * integ[j] * kMmToM;
    }
    r += wi * B.wgt[j] * pair;
  }
  return r;
}

// Concrete per-ISA-cloned entry points. target_clones does not apply to
// templates, so each wrapper instantiates the body (always_inline) under its
// own target; the shape constants then drive full unrolling per clone.
#define EMI_ROW_ARGS                                                        \
  const SampledPath &A, std::size_t i, const SampledPath &B, double *buf,   \
      unsigned char *cls, detail::PairTally &rc
EMI_KERNEL_CLONES
double sampled_mutual_row_o4s2(EMI_ROW_ARGS) {
  return sampled_mutual_row_body(A, i, B, buf, cls, rc,
                                 std::integral_constant<std::size_t, 4>{},
                                 std::integral_constant<std::size_t, 2>{});
}
EMI_KERNEL_CLONES
double sampled_mutual_row_o6s2(EMI_ROW_ARGS) {
  return sampled_mutual_row_body(A, i, B, buf, cls, rc,
                                 std::integral_constant<std::size_t, 6>{},
                                 std::integral_constant<std::size_t, 2>{});
}
EMI_KERNEL_CLONES
double sampled_mutual_row_generic(EMI_ROW_ARGS) {
  return sampled_mutual_row_body(A, i, B, buf, cls, rc, B.order, B.n_sub);
}

double sampled_mutual_row(EMI_ROW_ARGS) {
  if (B.order == 4 && B.n_sub == 2) {
    return sampled_mutual_row_o4s2(A, i, B, buf, cls, rc);
  }
  if (B.order == 6 && B.n_sub == 2) {
    return sampled_mutual_row_o6s2(A, i, B, buf, cls, rc);
  }
  return sampled_mutual_row_generic(A, i, B, buf, cls, rc);
}
#undef EMI_ROW_ARGS

}  // namespace

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
             const std::size_t n2 = b[p]->segment_count();
             std::vector<double> buf(2 * n2 * b[p]->samples_per_segment() +
                                     n2 * b[p]->n_sub + n2);
             std::vector<unsigned char> cls(n2);
             return sampled_mutual_row(*a[p], i, *b[p], buf.data(), cls.data(), tally);
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
             const SampledPath& sp = *paths[p];
             const double wi = sp.wgt[i];
             double v = wi * wi * self_inductance_wire(sp.len[i], sp.rad[i]);
             for (std::size_t j = i + 1; j < sp.segment_count(); ++j) {
               v += 2.0 * wi * sp.wgt[j] * sampled_mutual_exact(sp, i, sp, j, tally);
             }
             return v;
           });
}

bool kernel_clones_enabled() {
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

}  // namespace emi::peec
