// The sweep switch, its tolerances and the economics counters shared by the
// adaptive frequency-refinement engine (sweep/adaptive.hpp) and the
// Sherman-Morrison coupling model for the per-pair sensitivity sweeps
// (sweep/coupling.hpp).
//
// Acceleration is opt-in: a default SweepAccel leaves every caller on the
// dense exact path, bit-identical to older builds. The flow forwards one
// SweepAccel through FlowOptions; it joins the checkpoint context digest
// (only when adaptive is set) because it changes computed spectra.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace emi::sweep {

// The sweep switch: dense exact sweeps, or `adaptive`.
struct SweepAccel {
  // Adaptive frequency refinement for every dense emission sweep, and the
  // coupling model for the per-pair sensitivity sweeps. Refinement solves a
  // coarse geometric grid of kCoarsePoints and recursively bisects intervals
  // whose solved midpoint deviates more than tol_db() (per probed output
  // node) from the fill's own prediction of it. An interval is accepted only
  // after its midpoint AND both child midpoints pass - two generations of
  // solved agreement - so the level-0 grid can start small; acceptance still
  // guarantees a solved sample at least every
  // (grid span)/(4*(kCoarsePoints-1)). Non-refined points are filled by
  // monotone piecewise-cubic interpolation of the complex transfer in log f;
  // the admission residual is the documented per-point error bound. The
  // sensitivity ranking then runs every pair through one coupling-model
  // factorization pass over the refined grid (sweep/coupling.hpp); a pair
  // escalates to its own adaptive sweep when the fill's held-out residual
  // exceeds gate_db().
  bool adaptive = false;
  // Read nowhere: `adaptive` alone selects the coupling model. It stays
  // declared because emibench's flow options still assign it.
  bool surrogate = false;
};

// Level-0 grid size of the adaptive refinement; a dense grid of at most
// kCoarsePoints + 2 points is solved whole.
inline constexpr std::size_t kCoarsePoints = 9;

// The tolerances at a degrade level of the flow's deadline ladder
// (DESIGN.md §9): the shipped values at level 0, doubled per level. A
// degraded retry runs the same machinery with coarser admission and
// escalation, never a different engine.
inline double ladder_scale(int degrade) {
  return static_cast<double>(1 << std::clamp(degrade, 0, 16));
}
// Refinement admission tolerance.
inline double tol_db(int degrade) { return 0.3 * ladder_scale(degrade); }
// Coupling-model escalation gate on a pair's held-out residual.
inline double gate_db(int degrade) { return 0.5 * ladder_scale(degrade); }

// Sweep economics, surfaced as `sweep.*` profile counters by the flow and
// aggregated by the serve STATS verb. Counters are pure functions of solved
// values, so they are bit-identical at any thread count.
struct SweepStats {
  std::uint64_t full_solves = 0;     // full-size MNA solves performed
  std::uint64_t resumed_solves = 0;  // of those, factored from a baseline's
                                     // shared prefix (num::Lu resume)
  std::uint64_t interp_points = 0;   // dense points filled by interpolation
  std::uint64_t surrogate_evals = 0; // dense points filled by the coupling model
  std::uint64_t escalations = 0;     // pair sweeps escalated past the gate
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
