#include "src/sweep/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <stdexcept>

#include "src/numeric/stats.hpp"

namespace emi::sweep {
namespace {

using Complex = std::complex<double>;

constexpr double kMagFloor = 1e-300;  // keeps dB math finite for zero phasors

double mag_db(const Complex& v) {
  return num::db20(std::max(std::abs(v), kMagFloor));
}

// Solve the circuit at the given dense-grid indices (one batch). Per-point
// MNA solves are independent, so each solved phasor is bit-identical to the
// one a full dense sweep would produce at the same frequency and scale.
// Returns per node (outer) the complex measured phasor per batch entry.
std::vector<std::vector<Complex>> solve_batch(const ckt::Circuit& c,
                                              const std::vector<std::string>& nodes,
                                              const std::vector<double>& dense_freqs_hz,
                                              const std::vector<double>& envelope,
                                              const ckt::AcOptions& ac,
                                              const std::vector<std::size_t>& idx) {
  std::vector<double> f(idx.size());
  std::vector<double> env(idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    f[i] = dense_freqs_hz[idx[i]];
    env[i] = envelope[idx[i]];
  }
  ckt::AcOptions ac_opt = ac;
  ac_opt.source_scale = env;
  const ckt::AcSolution sol = ckt::ac_solve_checked(c, f, ac_opt).value();
  std::vector<std::vector<Complex>> v(nodes.size(), std::vector<Complex>(idx.size()));
  for (std::size_t ni = 0; ni < nodes.size(); ++ni) {
    for (std::size_t i = 0; i < idx.size(); ++i) {
      v[ni][i] = sol.voltage(nodes[ni], i);
    }
  }
  return v;
}

}  // namespace

std::vector<double> monotone_cubic_interp(const std::vector<double>& x,
                                          const std::vector<double>& y,
                                          const std::vector<double>& xq) {
  const std::size_t n = x.size();
  if (n != y.size() || n < 2) {
    throw std::invalid_argument("monotone_cubic_interp: need >= 2 knots");
  }
  for (std::size_t i = 1; i < n; ++i) {
    if (!(x[i] > x[i - 1])) {
      throw std::invalid_argument("monotone_cubic_interp: knots not increasing");
    }
  }
  // Fritsch-Carlson slopes: secants, endpoint one-sided, interior slopes
  // limited so every cubic piece preserves the data's local monotonicity
  // (no overshoot between solved points - essential for an error bound
  // stated against the interpolant itself).
  std::vector<double> h(n - 1), delta(n - 1), m(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    h[i] = x[i + 1] - x[i];
    delta[i] = (y[i + 1] - y[i]) / h[i];
  }
  m[0] = delta[0];
  m[n - 1] = delta[n - 2];
  for (std::size_t i = 1; i + 1 < n; ++i) {
    if (delta[i - 1] * delta[i] <= 0.0) {
      m[i] = 0.0;
    } else {
      // Weighted harmonic mean keeps the piece monotone (FC region).
      const double w1 = 2.0 * h[i] + h[i - 1];
      const double w2 = h[i] + 2.0 * h[i - 1];
      m[i] = (w1 + w2) / (w1 / delta[i - 1] + w2 / delta[i]);
    }
  }

  std::vector<double> out(xq.size());
  for (std::size_t q = 0; q < xq.size(); ++q) {
    double xv = std::clamp(xq[q], x.front(), x.back());
    // Deterministic bracket: last knot <= xv.
    const auto it = std::upper_bound(x.begin(), x.end(), xv);
    std::size_t i = static_cast<std::size_t>(std::distance(x.begin(), it));
    i = (i == 0) ? 0 : i - 1;
    if (i >= n - 1) i = n - 2;
    const double t = (xv - x[i]) / h[i];
    const double t2 = t * t;
    const double t3 = t2 * t;
    const double h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
    const double h10 = t3 - 2.0 * t2 + t;
    const double h01 = -2.0 * t3 + 3.0 * t2;
    const double h11 = t3 - t2;
    out[q] = h00 * y[i] + h10 * h[i] * m[i] + h01 * y[i + 1] + h11 * h[i] * m[i + 1];
  }
  return out;
}

AdaptiveSweepResult adaptive_ac_sweep(const ckt::Circuit& c,
                                      const std::vector<std::string>& probe_nodes,
                                      const std::vector<double>& dense_freqs_hz,
                                      const std::vector<double>& envelope,
                                      const ckt::AcOptions& ac, const SweepAccel& accel,
                                      int degrade) {
  const std::size_t n = dense_freqs_hz.size();
  if (envelope.size() != n) {
    throw std::invalid_argument("adaptive_ac_sweep: grid mismatch");
  }
  if (probe_nodes.empty()) {
    throw std::invalid_argument("adaptive_ac_sweep: no probe nodes");
  }
  const std::size_t nn = probe_nodes.size();

  AdaptiveSweepResult res;
  res.freqs_hz = dense_freqs_hz;
  res.level_dbuv.assign(nn, std::vector<double>(n, 0.0));
  res.solved.assign(n, 0);
  res.error_bound_db.assign(n, 0.0);
  if (n == 0) return res;

  if (!accel.adaptive || n <= kCoarsePoints + 2) {
    // Exact path: solve the whole grid in one batch.
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    const auto v = solve_batch(c, probe_nodes, dense_freqs_hz, envelope, ac, all);
    for (std::size_t ni = 0; ni < nn; ++ni) {
      for (std::size_t i = 0; i < n; ++i) {
        res.level_dbuv[ni][i] = num::volts_to_dbuv(std::abs(v[ni][i]));
      }
    }
    res.solved.assign(n, 1);
    res.stats.full_solves += n;
    return res;
  }

  // The refinement works on the complex envelope-normalized transfer
  // H = V / envelope in log-frequency: H's real and imaginary parts are
  // smooth rational functions of frequency even where |H| dives through a
  // cancellation notch, so a chord (and later the cubic fill) in complex
  // space reproduces magnitude structure that a dB-magnitude interpolant
  // would walk straight across. The envelope is strictly positive (the
  // trapezoid envelope is), so the normalization is exact.
  std::vector<double> lnf(n);
  for (std::size_t i = 0; i < n; ++i) lnf[i] = std::log(dense_freqs_hz[i]);

  // h[ni][gi] is valid only where solved[gi] == 1.
  std::vector<std::vector<Complex>> h(nn, std::vector<Complex>(n));
  const auto admit_batch = [&](const std::vector<std::size_t>& idx) {
    const auto v = solve_batch(c, probe_nodes, dense_freqs_hz, envelope, ac, idx);
    for (std::size_t i = 0; i < idx.size(); ++i) {
      const std::size_t gi = idx[i];
      res.solved[gi] = 1;
      res.error_bound_db[gi] = 0.0;
      for (std::size_t ni = 0; ni < nn; ++ni) {
        res.level_dbuv[ni][gi] = num::volts_to_dbuv(std::abs(v[ni][i]));
        h[ni][gi] = v[ni][i] / envelope[gi];
      }
    }
    res.stats.full_solves += idx.size();
  };

  // Level 0: even subsample of the dense index range (geometric in f).
  std::vector<std::size_t> level0;
  for (std::size_t j = 0; j < kCoarsePoints; ++j) {
    const std::size_t idx =
        (j * (n - 1) + (kCoarsePoints - 1) / 2) / (kCoarsePoints - 1);
    if (level0.empty() || level0.back() != idx) level0.push_back(idx);
  }
  admit_batch(level0);

  // Intervals pending a midpoint test, kept sorted by left dense index.
  // Each level first PREDICTS every pending midpoint with the same
  // interpolant the final fill uses (shape-preserving cubic on Re/Im H over
  // the currently solved points), then solves all midpoints in one batch in
  // index order, then admits each interval by the prediction's dB error at
  // its solved midpoint. Validating the actual fill - not a chord - makes
  // the admission residual an honest cross-validated error estimate, and an
  // interval is accepted only once TWO generations agree: its own midpoint
  // passes (credit 1) and then both child midpoints pass too. Structure
  // that a single lucky midpoint sample would hide beside is caught by the
  // validation generation. Decisions depend only on solved values, so
  // refinement order is a pure function of the inputs.
  struct Interval {
    std::size_t a, b;
    int credit;  // 1 = the parent's midpoint already passed
    bool operator<(const Interval& o) const {
      return a != o.a ? a < o.a : b < o.b;
    }
  };
  std::vector<Interval> work;
  for (std::size_t j = 0; j + 1 < level0.size(); ++j) {
    if (level0[j + 1] - level0[j] >= 2) {
      work.push_back({level0[j], level0[j + 1], 0});
    }
  }
  const double tol = tol_db(degrade);
  std::vector<double> xs, re, im;
  while (!work.empty()) {
    std::sort(work.begin(), work.end());
    std::vector<std::size_t> mids;
    mids.reserve(work.size());
    for (const auto& w : work) mids.push_back((w.a + w.b) / 2);
    std::vector<double> xq(mids.size());
    for (std::size_t i = 0; i < mids.size(); ++i) xq[i] = lnf[mids[i]];

    // Cross-validation predictions from the pre-level solved set.
    xs.clear();
    for (std::size_t gi = 0; gi < n; ++gi) {
      if (res.solved[gi]) xs.push_back(lnf[gi]);
    }
    std::vector<std::vector<double>> pred_db(nn);
    for (std::size_t ni = 0; ni < nn; ++ni) {
      re.clear();
      im.clear();
      for (std::size_t gi = 0; gi < n; ++gi) {
        if (res.solved[gi]) {
          re.push_back(h[ni][gi].real());
          im.push_back(h[ni][gi].imag());
        }
      }
      const std::vector<double> re_q = monotone_cubic_interp(xs, re, xq);
      const std::vector<double> im_q = monotone_cubic_interp(xs, im, xq);
      pred_db[ni].resize(mids.size());
      for (std::size_t q = 0; q < mids.size(); ++q) {
        pred_db[ni][q] = mag_db(Complex(re_q[q], im_q[q]));
      }
    }

    admit_batch(mids);

    std::vector<Interval> next;
    for (std::size_t wi = 0; wi < work.size(); ++wi) {
      const auto [a, b, credit] = work[wi];
      const std::size_t m = mids[wi];
      // Admission rule: worst dB deviation across probe nodes between the
      // solved midpoint transfer and the fill's prediction of it.
      double err = 0.0;
      for (std::size_t ni = 0; ni < nn; ++ni) {
        err = std::max(err, std::abs(mag_db(h[ni][m]) - pred_db[ni][wi]));
      }
      res.stats.max_residual_db = std::max(res.stats.max_residual_db, err);
      // Admit at half the tolerance: the residual is a one-point estimate of
      // the interval's fill error, and the factor of two covers structure
      // sitting off-midpoint (measured headroom across the fuzz battery).
      if (err > 0.5 * tol) {
        // Failed: both halves start over with no credit.
        if (m - a >= 2) next.push_back({a, m, 0});
        if (b - m >= 2) next.push_back({m, b, 0});
      } else if (credit == 0) {
        // Passed once: the children must also pass before anything between
        // a and b is trusted to the interpolant.
        if (m - a >= 2) next.push_back({a, m, 1});
        if (b - m >= 2) next.push_back({m, b, 1});
      } else {
        // Passed twice: the measured midpoint deviation is the documented
        // error bound for every point of (a, b) left to the interpolant.
        for (std::size_t gi = a + 1; gi < b; ++gi) {
          if (!res.solved[gi]) res.error_bound_db[gi] = err;
        }
      }
    }
    work = std::move(next);
  }

  // Fill unsolved points with the shape-preserving cubic applied to the
  // real and imaginary parts of H in ln f, then convert the interpolated
  // phasor back to a level. Interpolating the components - not |H| in dB -
  // is what lets the fill pass through cancellation notches.
  xs.clear();
  std::vector<double> xq;
  std::vector<std::size_t> qi;
  for (std::size_t gi = 0; gi < n; ++gi) {
    if (res.solved[gi]) {
      xs.push_back(lnf[gi]);
    } else {
      xq.push_back(lnf[gi]);
      qi.push_back(gi);
    }
  }
  res.stats.interp_points += qi.size();
  if (!qi.empty()) {
    for (std::size_t ni = 0; ni < nn; ++ni) {
      re.clear();
      im.clear();
      for (std::size_t gi = 0; gi < n; ++gi) {
        if (res.solved[gi]) {
          re.push_back(h[ni][gi].real());
          im.push_back(h[ni][gi].imag());
        }
      }
      const std::vector<double> re_q = monotone_cubic_interp(xs, re, xq);
      const std::vector<double> im_q = monotone_cubic_interp(xs, im, xq);
      for (std::size_t q = 0; q < qi.size(); ++q) {
        const double mag = std::hypot(re_q[q], im_q[q]) * envelope[qi[q]];
        res.level_dbuv[ni][qi[q]] = num::volts_to_dbuv(std::max(mag, kMagFloor));
      }
    }
  }
  return res;
}

}  // namespace emi::sweep
