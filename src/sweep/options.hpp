// Sweep acceleration knobs and economics counters shared by the adaptive
// frequency-refinement engine (sweep/adaptive.hpp) and the Sherman-Morrison
// coupling model for the per-pair sensitivity sweeps (sweep/coupling.hpp).
//
// Acceleration is opt-in: a default SweepAccel leaves every caller on the
// dense exact path, bit-identical to older builds. The flow forwards one
// SweepAccel through FlowOptions; it joins the checkpoint context digest
// (only when enabled) because enabling it changes computed spectra.
#pragma once

#include <algorithm>
#include <cstdint>

namespace emi::sweep {

// Opt-in acceleration for dense AC emission sweeps.
struct SweepAccel {
  // (a) Adaptive frequency refinement: solve a coarse geometric grid and
  // recursively bisect intervals whose solved midpoint deviates more than
  // tol_db (per probed output node) from the fill's own prediction of it.
  // An interval is accepted only after its midpoint AND both child
  // midpoints pass - two generations of solved agreement - so the level-0
  // grid can start small; acceptance still guarantees a solved sample at
  // least every (grid span)/(4*(coarse_points-1)). Non-refined points are
  // filled by monotone piecewise-cubic interpolation of the complex
  // transfer in log f; the admission residual is the documented per-point
  // error bound.
  bool adaptive = false;
  double tol_db = 0.3;          // refinement admission tolerance
  std::size_t coarse_points = 9;  // level-0 grid size (clamped to the dense grid)

  // (b) Per-pair sensitivity sweeps through the coupling model: one
  // factorization pass over the refined grid serves every candidate pair
  // (sweep/coupling.hpp), and a pair escalates to its own adaptive sweep
  // when the fill's held-out residual exceeds gate_db. Requires adaptive
  // (the model grid is the adaptive baseline's refined grid):
  // rank_coupling_sensitivity_report rejects surrogate without adaptive.
  bool surrogate = false;
  double gate_db = 0.5;         // escalation gate on the held-out residual

  // Degradation-ladder hook (flow stage retries after deadline expiry):
  // coarser admission/escalation tolerances, same machinery.
  SweepAccel degraded(int degrade) const {
    SweepAccel a = *this;
    const double scale = static_cast<double>(1 << std::clamp(degrade, 0, 16));
    a.tol_db *= scale;
    a.gate_db *= scale;
    return a;
  }

  bool enabled() const { return adaptive || surrogate; }
};

// Sweep economics, surfaced as `sweep.*` profile counters by the flow and
// aggregated by the serve STATS verb. Counters are pure functions of solved
// values, so they are bit-identical at any thread count.
struct SweepStats {
  std::uint64_t full_solves = 0;     // full-size MNA solves performed
  std::uint64_t resumed_solves = 0;  // of those, factored from a baseline's
                                     // shared prefix (num::Lu resume)
  std::uint64_t interp_points = 0;   // dense points filled by interpolation
  std::uint64_t surrogate_evals = 0; // dense points filled by the coupling model
  std::uint64_t escalations = 0;     // candidate sweeps escalated to dense
  double max_residual_db = 0.0;      // worst admission / held-out residual seen

  void merge(const SweepStats& o) {
    full_solves += o.full_solves;
    resumed_solves += o.resumed_solves;
    interp_points += o.interp_points;
    surrogate_evals += o.surrogate_evals;
    escalations += o.escalations;
    max_residual_db = std::max(max_residual_db, o.max_residual_db);
  }
};

}  // namespace emi::sweep
