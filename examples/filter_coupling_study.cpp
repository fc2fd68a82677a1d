// How much magnetic coupling can a filter tolerate? The paper's design-rule
// threshold comes from the observation that "a coupling factor with an
// amount of 0.01 already severely influences the behavior of for example a
// pi filter circuit". This study builds a standalone pi filter between a
// noise source and a LISN and sweeps the coupling factor between the two
// filter capacitors' ESLs, printing the attenuation loss - then repeats the
// experiment with the geometric levers the design rules use: distance and
// rotation.
//
// Build & run:  ./build/examples/filter_coupling_study
#include <cstdio>

#include "src/ckt/ac.hpp"
#include "src/emi/lisn.hpp"
#include "src/numeric/stats.hpp"
#include "src/peec/component_model.hpp"
#include "src/peec/coupling.hpp"

using emi::units::Millimeters;

namespace {

// Pi filter between a unit noise source and a CISPR 25 LISN; returns the
// circuit. The two X-capacitors' ESLs are L_C1/L_C2 so a K element between
// them models their magnetic coupling.
emi::ckt::Circuit make_pi_filter() {
  emi::ckt::Circuit c;
  c.add_vsource("VB", "batt", "0", emi::ckt::Waveform::dc(12.0));
  emi::emc::attach_lisn(c, "batt", "vin");
  // C1 | L | C2 pi filter.
  c.add_inductor("L_C1", "vin", "c1a", 15e-9);
  c.add_resistor("R_C1", "c1a", "c1b", 0.03);
  c.add_capacitor("C_1", "c1b", "0", 1.5e-6);
  c.add_inductor("L_FLT", "vin", "nn", 47e-6);
  c.add_capacitor("C_PAR", "vin", "nn", 15e-12);
  c.add_resistor("R_DMP", "vin", "nn", 15e3);
  c.add_inductor("L_C2", "nn", "c2a", 15e-9);
  c.add_resistor("R_C2", "c2a", "c2b", 0.03);
  c.add_capacitor("C_2", "c2b", "0", 1.5e-6);
  // Noise source behind a source inductance.
  c.add_vsource("VN", "nz", "0", emi::ckt::Waveform::dc(0.0), 1.0);
  c.add_inductor("L_SRC", "nz", "nn", 20e-9);
  return c;
}

double level_at(const emi::ckt::Circuit& c, double freq) {
  const auto sol = emi::ckt::ac_solve_checked(c, {freq}).value();
  return emi::num::volts_to_dbuv(std::abs(sol.voltage("LISN_meas", 0)));
}

}  // namespace

int main() {
  using namespace emi;

  // --- electrical sweep: filter degradation vs coupling factor -------------
  const double f_probe = 10e6;  // where ESL coupling dominates
  ckt::Circuit base = make_pi_filter();
  const double clean = level_at(base, f_probe);
  std::printf("pi-filter LISN level at %.0f MHz vs coupling factor k(C1,C2):\n",
              f_probe / 1e6);
  std::printf("  k = 0      : %6.1f dBuV (reference)\n", clean);
  for (double k : {0.001, 0.005, 0.01, 0.02, 0.05, 0.1}) {
    ckt::Circuit c = make_pi_filter();
    c.add_coupling("K12", "L_C1", "L_C2", k);
    const double lvl = level_at(c, f_probe);
    std::printf("  k = %-6.3f : %6.1f dBuV  (degradation %+5.1f dB)%s\n", k, lvl,
                lvl - clean, k == 0.01 ? "   <- paper's rule threshold" : "");
  }

  // --- geometric levers: what placement does to k ---------------------------
  const peec::ComponentFieldModel ca = peec::x_capacitor("C1");
  const peec::ComponentFieldModel cb = peec::x_capacitor("C2");
  const peec::CouplingExtractor ex;

  std::printf("\nk(C1,C2) vs distance (parallel axes) and the resulting level:\n");
  for (double d : {15.0, 20.0, 30.0, 40.0, 55.0}) {
    const double k = std::fabs(ex.coupling_at(ca, cb, Millimeters{d}));
    ckt::Circuit c = make_pi_filter();
    if (k >= 1e-4) c.add_coupling("K12", "L_C1", "L_C2", k);
    std::printf("  d = %4.1f mm  k = %.4f  ->  %6.1f dBuV\n", d, k,
                level_at(c, f_probe));
  }

  std::printf("\nk(C1,C2) vs rotation of C2 at d = 20 mm (the 90-deg rule):\n");
  for (double rot : {0.0, 30.0, 60.0, 90.0}) {
    const double k = std::fabs(ex.coupling_at(ca, cb, Millimeters{20.0}, 0.0, rot));
    ckt::Circuit c = make_pi_filter();
    if (k >= 1e-4) c.add_coupling("K12", "L_C1", "L_C2", k);
    std::printf("  rot = %4.0f deg  k = %.4f  ->  %6.1f dBuV\n", rot, k,
                level_at(c, f_probe));
  }
  return 0;
}
