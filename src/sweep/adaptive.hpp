// Deterministic adaptive frequency refinement over a dense geometric grid.
//
// The engine solves a coarse subsample of the dense grid, then level by
// level bisects intervals under a cross-validated admission rule: each
// pending midpoint is first PREDICTED with the actual global fill built
// from the currently-solved points, then solved, and the interval fails
// when the solved level deviates from the prediction by more than tol_db/2
// (sweep/options.hpp, at the caller's degrade level) on any probed node
// (per-node, on the envelope-normalized transfer H = V/env in ln f).
// Acceptance takes two generations of solved agreement - an interval's
// midpoint passes and then both child midpoints pass (a credit bit on the
// worklist entry) - so one coincidentally on-prediction midpoint cannot
// hide interior structure. Each level's
// midpoints are solved in one batch whose order is the sorted interval
// index - never discovery order - so the refined grid and every solved
// value are bit-identical at any thread count. Points never solved are
// filled by shape-preserving cubic (Fritsch-Carlson) interpolation of
// Re H and Im H in ln f; interpolating the complex components rather than
// |H| in dB lets both the admission test and the fill track cancellation
// notches, whose real and imaginary parts stay smooth while the magnitude
// dives. The enclosing interval's admission residual is the documented
// error bound of every filled point.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/ckt/ac.hpp"
#include "src/sweep/options.hpp"

namespace emi::sweep {

struct AdaptiveSweepResult {
  std::vector<double> freqs_hz;  // the dense grid, verbatim
  // Per probe node (outer), per dense point (inner): level in dBuV. At
  // solved points this is bit-identical to the dense reference sweep.
  std::vector<std::vector<double>> level_dbuv;
  std::vector<std::uint8_t> solved;     // 1 = exact MNA solve at this point
  std::vector<double> error_bound_db;   // admission residual; 0 where solved
  SweepStats stats;
};

// Run the adaptive sweep. `envelope` is the per-point source magnitude
// (strictly positive; the trapezoid envelope is) and must match the grid.
// Refinement admits at tol_db(degrade). When accel.adaptive is false, or the
// grid is too small to subsample, the whole grid is solved exactly (still
// one result shape for callers).
AdaptiveSweepResult adaptive_ac_sweep(const ckt::Circuit& c,
                                      const std::vector<std::string>& probe_nodes,
                                      const std::vector<double>& dense_freqs_hz,
                                      const std::vector<double>& envelope,
                                      const ckt::AcOptions& ac, const SweepAccel& accel,
                                      int degrade = 0);

// Monotone piecewise-cubic interpolation (Fritsch-Carlson PCHIP) of y(x) on
// a strictly increasing grid, evaluated at xq (clamped at the ends). Public
// for the fuzz tests; the adaptive engine uses it to fill unsolved points.
std::vector<double> monotone_cubic_interp(const std::vector<double>& x,
                                          const std::vector<double>& y,
                                          const std::vector<double>& xq);

}  // namespace emi::sweep
