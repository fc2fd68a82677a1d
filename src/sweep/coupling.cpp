#include "src/sweep/coupling.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <stdexcept>

#include "src/numeric/stats.hpp"
#include "src/sweep/adaptive.hpp"

namespace emi::sweep {
namespace {

constexpr double kMagFloor = 1e-300;  // keeps dB math finite for zero phasors
constexpr double kTau = 6.283185307179586476925286766559;

double mag_db(const ckt::Complex& v) {
  return num::db20(std::max(std::abs(v), kMagFloor));
}

}  // namespace

ckt::Complex coupling_probe_phasor(const ckt::CouplingProbeModel& m, std::size_t fi,
                                   std::size_t p, std::size_t q, double delta_m) {
  using C = ckt::Complex;
  const C base = m.v_meas[fi];
  if (delta_m == 0.0) return base;
  // Adding mutual delta_m between candidates p and q stamps
  //   dA = -j*w*delta_m * (e_bp e_bq^T + e_bq e_bp^T) = U C V^T
  // with U = V = [e_bp, e_bq] and C = s*[[0,1],[1,0]], s = -j*w*delta_m.
  // Woodbury: x' = x - A^{-1} U (C^{-1} + V^T A^{-1} U)^{-1} V^T x, where
  // every A^{-1} column involved was extracted when the model was built.
  // C^{-1} = (1/s)*[[0,1],[1,0]], and (V^T A^{-1} U)[r][s] = y_s[b_r] with
  // y_s = A^{-1} e_{b_s} = col_branch[fi][s][.].
  const C s = C{0.0, -kTau * m.freqs_hz[fi] * delta_m};
  const C inv_s = 1.0 / s;
  const auto& cb = m.col_branch[fi];
  const C k11 = cb[p][p];
  const C k12 = inv_s + cb[q][p];
  const C k21 = inv_s + cb[p][q];
  const C k22 = cb[q][q];
  const C det = k11 * k22 - k12 * k21;
  const C r1 = m.i_branch[fi][p];
  const C r2 = m.i_branch[fi][q];
  const C z1 = (k22 * r1 - k12 * r2) / det;
  const C z2 = (k11 * r2 - k21 * r1) / det;
  return base - (m.col_meas[fi][p] * z1 + m.col_meas[fi][q] * z2);
}

std::vector<double> coupling_model_pair_sweep(
    const ckt::CouplingProbeModel& model, const std::vector<std::size_t>& solved_idx,
    const std::vector<double>& dense_freqs_hz, const std::vector<double>& envelope,
    double delta_m, std::size_t p, std::size_t q, int degrade, SweepStats* stats,
    const std::function<std::vector<double>()>& escalate_dense) {
  const std::size_t n = dense_freqs_hz.size();
  const std::size_t nm = model.freqs_hz.size();
  if (solved_idx.size() != nm || envelope.size() != n || nm < 2 ||
      solved_idx.front() != 0 || solved_idx.back() != n - 1) {
    throw std::invalid_argument(
        "coupling_model_pair_sweep: model grid must map onto the dense grid "
        "and span both ends");
  }

  // Exact probed phasors at every model point; the envelope-normalized
  // transfer H is what gets interpolated (its real and imaginary parts stay
  // smooth through cancellation notches, where |H| in dB dives).
  std::vector<ckt::Complex> vp(nm), h(nm);
  std::vector<double> lnf(nm);
  for (std::size_t k = 0; k < nm; ++k) {
    vp[k] = coupling_probe_phasor(model, k, p, q, delta_m);
    h[k] = vp[k] / envelope[solved_idx[k]];
    lnf[k] = std::log(model.freqs_hz[k]);
  }

  // Self-reported residual: withhold every 4th interior model point from a
  // validation fit and measure the fill against the exact value there. The
  // withheld values are free (the model already paid for them), so the gate
  // sees the interpolant's real behaviour, not a proxy. A withheld point
  // only counts when one of its adjacent model gaps contains unsolved dense
  // points - where the gaps are already solved wall-to-wall the final fill
  // is exact there and a leave-out error would gate on a job the fill never
  // has to do (it measures interpolation across a gap that does not exist).
  std::vector<double> fit_x, fit_re, fit_im, val_x;
  std::vector<std::size_t> val_k;
  fit_x.reserve(nm);
  fit_re.reserve(nm);
  fit_im.reserve(nm);
  for (std::size_t k = 0; k < nm; ++k) {
    const bool gap_below = k > 0 && solved_idx[k] - solved_idx[k - 1] >= 2;
    const bool gap_above = k + 1 < nm && solved_idx[k + 1] - solved_idx[k] >= 2;
    if (k != 0 && k + 1 != nm && (k % 4) == 2 && (gap_below || gap_above)) {
      val_x.push_back(lnf[k]);
      val_k.push_back(k);
      continue;
    }
    fit_x.push_back(lnf[k]);
    fit_re.push_back(h[k].real());
    fit_im.push_back(h[k].imag());
  }
  double residual = 0.0;
  if (!val_k.empty()) {
    const std::vector<double> pre = monotone_cubic_interp(fit_x, fit_re, val_x);
    const std::vector<double> pim = monotone_cubic_interp(fit_x, fit_im, val_x);
    for (std::size_t i = 0; i < val_k.size(); ++i) {
      const double err =
          std::fabs(mag_db(h[val_k[i]]) - mag_db(ckt::Complex{pre[i], pim[i]}));
      residual = std::max(residual, err);
    }
  }
  stats->max_residual_db = std::max(stats->max_residual_db, residual);
  if (residual > gate_db(degrade)) {
    stats->escalations += 1;
    return escalate_dense();
  }

  // Accepted: exact levels at model points, complex cubic fill (over ALL
  // model points, including the withheld ones) everywhere else.
  std::vector<double> re(nm), im(nm);
  for (std::size_t k = 0; k < nm; ++k) {
    re[k] = h[k].real();
    im[k] = h[k].imag();
  }
  std::vector<double> xq;
  std::vector<std::size_t> qi;
  xq.reserve(n - nm);
  qi.reserve(n - nm);
  std::vector<double> level(n, 0.0);
  std::size_t next = 0;
  for (std::size_t gi = 0; gi < n; ++gi) {
    if (next < nm && solved_idx[next] == gi) {
      level[gi] = num::volts_to_dbuv(std::max(std::abs(vp[next]), kMagFloor));
      ++next;
      continue;
    }
    xq.push_back(std::log(dense_freqs_hz[gi]));
    qi.push_back(gi);
  }
  if (!qi.empty()) {
    const std::vector<double> fre = monotone_cubic_interp(lnf, re, xq);
    const std::vector<double> fim = monotone_cubic_interp(lnf, im, xq);
    for (std::size_t i = 0; i < qi.size(); ++i) {
      const double mag = std::hypot(fre[i], fim[i]) * envelope[qi[i]];
      level[qi[i]] = num::volts_to_dbuv(std::max(mag, kMagFloor));
    }
  }
  stats->surrogate_evals += qi.size();
  return level;
}

}  // namespace emi::sweep
