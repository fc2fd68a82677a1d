#include "src/emi/emission.hpp"

#include <stdexcept>

#include "src/numeric/fft.hpp"
#include "src/numeric/stats.hpp"
#include "src/sweep/adaptive.hpp"

namespace emi::emc {

EmissionSpectrum conducted_emission(const ckt::Circuit& c, const std::string& meas_node,
                                    const TrapezoidSpectrum& source,
                                    const EmissionSweepOptions& opt) {
  const std::vector<double> freqs = num::log_space(opt.f_min_hz, opt.f_max_hz, opt.n_points);
  return conducted_emission_scaled(c, meas_node, freqs, envelope_series(source, freqs),
                                   opt.ac);
}

EmissionSpectrum conducted_emission_scaled(const ckt::Circuit& c,
                                           const std::string& meas_node,
                                           const std::vector<double>& freqs_hz,
                                           const std::vector<double>& source_envelope,
                                           const ckt::AcOptions& ac) {
  if (freqs_hz.size() != source_envelope.size()) {
    throw std::invalid_argument("conducted_emission_scaled: grid mismatch");
  }
  ckt::AcOptions ac_opt = ac;
  ac_opt.source_scale = source_envelope;
  const ckt::AcSolution sol = ckt::ac_solve_checked(c, freqs_hz, ac_opt).value();

  EmissionSpectrum out;
  out.freqs_hz = freqs_hz;
  out.level_dbuv.reserve(freqs_hz.size());
  for (std::size_t fi = 0; fi < freqs_hz.size(); ++fi) {
    out.level_dbuv.push_back(num::volts_to_dbuv(std::abs(sol.voltage(meas_node, fi))));
  }
  return out;
}

AdaptiveEmissionResult conducted_emission_adaptive(const ckt::Circuit& c,
                                                   const std::string& meas_node,
                                                   const TrapezoidSpectrum& source,
                                                   const EmissionSweepOptions& opt,
                                                   const emi::sweep::SweepAccel& accel,
                                                   int degrade) {
  const std::vector<double> freqs =
      num::log_space(opt.f_min_hz, opt.f_max_hz, opt.n_points);
  auto sweep = emi::sweep::adaptive_ac_sweep(c, {meas_node}, freqs,
                                             envelope_series(source, freqs), opt.ac,
                                             accel, degrade);
  AdaptiveEmissionResult out;
  out.spectrum.freqs_hz = std::move(sweep.freqs_hz);
  out.spectrum.level_dbuv = std::move(sweep.level_dbuv[0]);
  out.solved = std::move(sweep.solved);
  out.error_bound_db = std::move(sweep.error_bound_db);
  out.stats = sweep.stats;
  return out;
}

EmissionSpectrum spectrum_from_transient(const ckt::TransientResult& tr,
                                         const std::string& meas_node,
                                         double settle_fraction) {
  if (settle_fraction < 0.0 || settle_fraction >= 1.0) {
    throw std::invalid_argument("spectrum_from_transient: bad settle fraction");
  }
  const std::vector<double> wave = tr.voltage_waveform(meas_node);
  if (wave.size() < 16) throw std::invalid_argument("spectrum_from_transient: record too short");
  const std::size_t start = static_cast<std::size_t>(settle_fraction *
                                                     static_cast<double>(wave.size()));
  std::vector<double> tail(wave.begin() + static_cast<std::ptrdiff_t>(start), wave.end());
  const double dt = tr.times()[1] - tr.times()[0];
  const auto spec = num::amplitude_spectrum(std::move(tail), 1.0 / dt);

  EmissionSpectrum out;
  out.freqs_hz.reserve(spec.size());
  out.level_dbuv.reserve(spec.size());
  for (const auto& p : spec) {
    if (p.freq_hz <= 0.0) continue;
    out.freqs_hz.push_back(p.freq_hz);
    out.level_dbuv.push_back(num::volts_to_dbuv(p.amplitude));
  }
  return out;
}

std::vector<double> delta_db(const EmissionSpectrum& a, const EmissionSpectrum& b) {
  if (a.freqs_hz != b.freqs_hz) {
    throw std::invalid_argument("delta_db: spectra on different grids");
  }
  std::vector<double> out(a.level_dbuv.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = b.level_dbuv[i] - a.level_dbuv[i];
  }
  return out;
}

}  // namespace emi::emc
