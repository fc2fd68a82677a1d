// Netlist container for the system-level circuit simulation (MNA based).
//
// The element set is the minimum the EMI flow needs: R, L (with pairwise
// coupling K), C, independent V/I sources, a time-controlled switch and a
// diode. Capacitor parasitics (ESR/ESL) are composed explicitly from R and L
// primitives by the emi-module builders so that couplings can attach to the
// ESL inductors - exactly the mechanism the paper exploits.
//
// Node names are strings; "0" and "GND" denote ground.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ckt/waveform.hpp"
#include "src/core/units.hpp"

namespace emi::ckt {

using NodeId = int;  // dense node index; kGround for the reference node
inline constexpr NodeId kGround = -1;

// Matrix/vector subscript for a non-ground node. Callers must have excluded
// kGround already (MNA eliminates the reference row/col before stamping).
constexpr std::size_t index(NodeId id) { return static_cast<std::size_t>(id); }

struct Resistor {
  std::string name;
  NodeId n1, n2;
  double ohms;
};

struct Capacitor {
  std::string name;
  NodeId n1, n2;
  double farads;
};

// Inductors are group-2 (current-unknown) elements so mutual couplings can
// be stamped on the branch equations.
struct Inductor {
  std::string name;
  NodeId n1, n2;
  double henries;
};

// Coupling factor k between two inductors: M = k * sqrt(L1*L2).
struct Coupling {
  std::string name;
  std::size_t l1;  // index into inductors()
  std::size_t l2;
  double k;
};

struct VSource {
  std::string name;
  NodeId n1, n2;  // positive terminal n1
  Waveform wave;
  double ac_mag = 0.0;       // AC analysis magnitude (V)
  double ac_phase_deg = 0.0;
};

struct ISource {
  std::string name;
  NodeId n1, n2;  // current flows from n1 through the source to n2
  Waveform wave;
  double ac_mag = 0.0;
  double ac_phase_deg = 0.0;
};

// Voltage-independent switch: the control waveform (interpreted as 0..1)
// log-interpolates the resistance between r_off and r_on. In AC analysis the
// switch is frozen at `ac_state` (default on).
struct Switch {
  std::string name;
  NodeId n1, n2;
  Waveform control;
  double r_on = 10e-3;
  double r_off = 10e6;
  bool ac_state_on = true;

  double resistance(double ctrl) const;
};

// Junction diode, transient only (AC treats it as open, g_min leakage).
struct Diode {
  std::string name;
  NodeId anode, cathode;
  double i_s = 1e-12;  // saturation current (A)
  double n = 1.8;      // emission coefficient
};

class Circuit {
 public:
  // Node management -------------------------------------------------------
  NodeId node(const std::string& name);          // find-or-create
  std::optional<NodeId> find_node(const std::string& name) const;
  std::size_t node_count() const { return node_names_.size(); }
  const std::string& node_name(NodeId id) const { return node_names_.at(index(id)); }

  // Element builders (return the element index within its kind) ----------
  std::size_t add_resistor(const std::string& name, const std::string& n1,
                           const std::string& n2, double ohms);
  std::size_t add_capacitor(const std::string& name, const std::string& n1,
                            const std::string& n2, double farads);
  std::size_t add_inductor(const std::string& name, const std::string& n1,
                           const std::string& n2, double henries);
  std::size_t add_coupling(const std::string& name, const std::string& l1_name,
                           const std::string& l2_name, double k);
  std::size_t add_vsource(const std::string& name, const std::string& n1,
                          const std::string& n2, Waveform wave, double ac_mag = 0.0,
                          double ac_phase_deg = 0.0);
  std::size_t add_isource(const std::string& name, const std::string& n1,
                          const std::string& n2, Waveform wave, double ac_mag = 0.0,
                          double ac_phase_deg = 0.0);
  std::size_t add_switch(const std::string& name, const std::string& n1,
                         const std::string& n2, Waveform control, double r_on = 10e-3,
                         double r_off = 10e6);
  std::size_t add_diode(const std::string& name, const std::string& anode,
                        const std::string& cathode, double i_s = 1e-12, double n = 1.8);

  // Unit-typed builders: identical elements, values carried as strong types
  // from src/core/units.hpp so ohm/farad/henry mixups fail to compile. The
  // raw-double builders above remain for bulk netlist assembly.
  std::size_t add_resistor(const std::string& name, const std::string& n1,
                           const std::string& n2, units::Ohm r) {
    return add_resistor(name, n1, n2, r.raw());
  }
  std::size_t add_capacitor(const std::string& name, const std::string& n1,
                            const std::string& n2, units::Farad c) {
    return add_capacitor(name, n1, n2, c.raw());
  }
  std::size_t add_inductor(const std::string& name, const std::string& n1,
                           const std::string& n2, units::Henry l) {
    return add_inductor(name, n1, n2, l.raw());
  }

  // Mutate a coupling factor in place (the sensitivity analysis sweeps
  // these). Creates the coupling if it does not exist yet. Like
  // add_coupling, throws std::invalid_argument for |k| >= 1, a NaN k or an
  // inductor coupled to itself, whether or not the pair is coupled already.
  void set_coupling(const std::string& l1_name, const std::string& l2_name, double k);

  // Freeze a switch's state for AC analysis.
  void set_switch_ac_state(const std::string& name, bool on);

  // Update an inductor's value in place (used when layout-extracted trace
  // inductances replace schematic estimates).
  void set_inductance(const std::string& name, double henries);
  void set_inductance(const std::string& name, units::Henry l) {
    set_inductance(name, l.raw());
  }
  void clear_couplings() { couplings_.clear(); }

  std::size_t inductor_index(const std::string& name) const;

  // Element access --------------------------------------------------------
  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  const std::vector<Inductor>& inductors() const { return inductors_; }
  const std::vector<Coupling>& couplings() const { return couplings_; }
  const std::vector<VSource>& vsources() const { return vsources_; }
  const std::vector<ISource>& isources() const { return isources_; }
  const std::vector<Switch>& switches() const { return switches_; }
  const std::vector<Diode>& diodes() const { return diodes_; }

  // MNA layout: node voltages first, then one current unknown per inductor,
  // per voltage source, and per switch-free... (switches are resistive, no
  // extra unknowns). Branch ordering: inductors, then vsources.
  std::size_t unknown_count() const {
    return node_count() + inductors_.size() + vsources_.size();
  }
  std::size_t inductor_branch(std::size_t i) const { return node_count() + i; }
  std::size_t vsource_branch(std::size_t i) const {
    return node_count() + inductors_.size() + i;
  }

  // Full inductance matrix (self + mutual) in branch order.
  std::vector<std::vector<double>> inductance_matrix() const;
  // The (i1, i2) entry of inductance_matrix() on the circuit that
  // set_coupling(name of i1, name of i2, k) leaves, from this one and
  // without copying it. i1 != i2 are inductor indices.
  double coupled_mutual(std::size_t i1, std::size_t i2, double k) const;

 private:
  NodeId intern(const std::string& name);
  void check_unique(const std::string& name);
  // The mutual inductance a coupling of k between inductors i1 and i2 adds.
  double mutual(double k, std::size_t i1, std::size_t i2) const;

  std::vector<std::string> node_names_;
  std::unordered_map<std::string, NodeId> node_ids_;
  std::unordered_map<std::string, int> element_names_;  // uniqueness guard

  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<Inductor> inductors_;
  std::vector<Coupling> couplings_;
  std::vector<VSource> vsources_;
  std::vector<ISource> isources_;
  std::vector<Switch> switches_;
  std::vector<Diode> diodes_;
};

}  // namespace emi::ckt
