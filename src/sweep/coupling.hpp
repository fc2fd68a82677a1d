// Reduced-order coupling model evaluation: the per-candidate-pair half of
// the sweep acceleration. The ckt layer factors the baseline MNA system
// once per refined frequency and extracts the A^{-1} columns at every
// candidate inductor's branch row (ckt::CouplingProbeModel); this layer
// turns that into a dense emission sweep per probed pair:
//
//   * at every refined grid point the probed measurement phasor is the
//     EXACT rank-2 Sherman-Morrison update of the baseline solve - no new
//     factorization, no approximation beyond roundoff;
//   * between refined points the probed transfer is filled by the same
//     shape-preserving complex cubic the adaptive engine uses;
//   * the fill is validated on held-out refined points (their exact values
//     are free), and a pair whose held-out residual exceeds gate_db() of its
//     degrade level escalates to a caller-supplied sweep.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "src/ckt/ac.hpp"
#include "src/sweep/options.hpp"

namespace emi::sweep {

// Probed measurement phasor at model point fi when the mutual inductance
// between candidates p and q changes by delta_m henries. delta_m == 0
// returns the baseline phasor verbatim.
ckt::Complex coupling_probe_phasor(const ckt::CouplingProbeModel& m, std::size_t fi,
                                   std::size_t p, std::size_t q, double delta_m);

// Dense emission sweep for one probed pair through the coupling model.
// solved_idx maps model points onto the dense grid (model.freqs_hz[i] ==
// dense_freqs_hz[solved_idx[i]], strictly increasing, >= 2 entries spanning
// both grid ends). Levels at model points are exact; the rest of the grid
// is filled by the complex cubic and counted as surrogate_evals. Every 4th
// interior model point is withheld from a validation fit; if the worst
// withheld-point deviation exceeds gate_db(degrade) the sweep escalates to
// escalate_dense() (counted by the caller's stats through the same pointer).
std::vector<double> coupling_model_pair_sweep(
    const ckt::CouplingProbeModel& model, const std::vector<std::size_t>& solved_idx,
    const std::vector<double>& dense_freqs_hz, const std::vector<double>& envelope,
    double delta_m, std::size_t p, std::size_t q, int degrade, SweepStats* stats,
    const std::function<std::vector<double>()>& escalate_dense);

}  // namespace emi::sweep
