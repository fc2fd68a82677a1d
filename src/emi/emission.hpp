// Conducted-emission prediction: frequency sweep of a circuit whose noise
// source is a trapezoid-shaped unit AC injection, measured at a LISN node
// in dBuV. Also: spectrum extraction from transient waveforms via FFT.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/ckt/ac.hpp"
#include "src/ckt/transient.hpp"
#include "src/emi/noise_source.hpp"
#include "src/sweep/options.hpp"

namespace emi::emc {

struct EmissionSpectrum {
  std::vector<double> freqs_hz;
  std::vector<double> level_dbuv;
};

struct EmissionSweepOptions {
  double f_min_hz = 150e3;   // CISPR 25 conducted range
  double f_max_hz = 108e6;
  std::size_t n_points = 200;
  // Solver knobs forwarded to the per-point MNA solve (source_scale is
  // overwritten by the envelope).
  ckt::AcOptions ac{};
};

// Run the sweep. The circuit must contain a voltage source named
// `noise_source` with ac_mag = 1; its magnitude is shaped per frequency by
// the trapezoid envelope. The emission level is |V(meas_node)| in dBuV.
EmissionSpectrum conducted_emission(const ckt::Circuit& c,
                                    const std::string& meas_node,
                                    const TrapezoidSpectrum& source,
                                    const EmissionSweepOptions& opt = {});

// Same, but with an externally supplied per-frequency source envelope
// (volts); used by ablations that bypass the trapezoid model.
EmissionSpectrum conducted_emission_scaled(const ckt::Circuit& c,
                                           const std::string& meas_node,
                                           const std::vector<double>& freqs_hz,
                                           const std::vector<double>& source_envelope,
                                           const ckt::AcOptions& ac = {});

// Adaptive-refinement sweep outcome: the spectrum on the full dense grid,
// plus which points were solved exactly (bit-identical to the dense path)
// and the documented per-point interpolation error bound for the rest.
struct AdaptiveEmissionResult {
  EmissionSpectrum spectrum;
  std::vector<std::uint8_t> solved;    // 1 = exact MNA solve at this point
  std::vector<double> error_bound_db;  // admission residual; 0 where solved
  emi::sweep::SweepStats stats;
};

// conducted_emission through the adaptive refinement engine, admitting at
// the tolerance of deadline-ladder level `degrade`. With accel.adaptive
// false this solves the whole grid (counters still filled), producing the
// same levels as conducted_emission bit for bit.
AdaptiveEmissionResult conducted_emission_adaptive(const ckt::Circuit& c,
                                                   const std::string& meas_node,
                                                   const TrapezoidSpectrum& source,
                                                   const EmissionSweepOptions& opt,
                                                   const emi::sweep::SweepAccel& accel,
                                                   int degrade = 0);

// Spectrum of a transient waveform at the measurement node, in dBuV.
// Discards the first `settle_fraction` of the record (startup transient).
EmissionSpectrum spectrum_from_transient(const ckt::TransientResult& tr,
                                         const std::string& meas_node,
                                         double settle_fraction = 0.25);

// Pointwise dB difference b - a (levels must share the frequency grid).
std::vector<double> delta_db(const EmissionSpectrum& a, const EmissionSpectrum& b);

}  // namespace emi::emc
