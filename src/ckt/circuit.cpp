#include "src/ckt/circuit.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace emi::ckt {

double Switch::resistance(double ctrl) const {
  const double c = std::clamp(ctrl, 0.0, 1.0);
  // Log interpolation keeps the transition well conditioned over the many
  // decades between r_on and r_off.
  return std::exp(std::log(r_off) + c * (std::log(r_on) - std::log(r_off)));
}

NodeId Circuit::intern(const std::string& name) {
  if (name == "0" || name == "GND" || name == "gnd") return kGround;
  if (const auto it = node_ids_.find(name); it != node_ids_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(node_names_.size());
  node_names_.push_back(name);
  node_ids_.emplace(name, id);
  return id;
}

NodeId Circuit::node(const std::string& name) { return intern(name); }

std::optional<NodeId> Circuit::find_node(const std::string& name) const {
  if (name == "0" || name == "GND" || name == "gnd") return kGround;
  if (const auto it = node_ids_.find(name); it != node_ids_.end()) return it->second;
  return std::nullopt;
}

void Circuit::check_unique(const std::string& name) {
  if (name.empty()) throw std::invalid_argument("element name must not be empty");
  if (!element_names_.emplace(name, 1).second) {
    throw std::invalid_argument("duplicate element name: " + name);
  }
}

std::size_t Circuit::add_resistor(const std::string& name, const std::string& n1,
                                  const std::string& n2, double ohms) {
  if (ohms <= 0.0) throw std::invalid_argument("resistor " + name + ": R <= 0");
  check_unique(name);
  resistors_.push_back({name, intern(n1), intern(n2), ohms});
  return resistors_.size() - 1;
}

std::size_t Circuit::add_capacitor(const std::string& name, const std::string& n1,
                                   const std::string& n2, double farads) {
  if (farads <= 0.0) throw std::invalid_argument("capacitor " + name + ": C <= 0");
  check_unique(name);
  capacitors_.push_back({name, intern(n1), intern(n2), farads});
  return capacitors_.size() - 1;
}

std::size_t Circuit::add_inductor(const std::string& name, const std::string& n1,
                                  const std::string& n2, double henries) {
  if (henries <= 0.0) throw std::invalid_argument("inductor " + name + ": L <= 0");
  check_unique(name);
  inductors_.push_back({name, intern(n1), intern(n2), henries});
  return inductors_.size() - 1;
}

std::size_t Circuit::inductor_index(const std::string& name) const {
  for (std::size_t i = 0; i < inductors_.size(); ++i) {
    if (inductors_[i].name == name) return i;
  }
  throw std::invalid_argument("no such inductor: " + name);
}

namespace {

// What both coupling setters reject before touching the circuit: |k| >= 1
// or a NaN k (a non-physical inductance matrix) and an inductor coupled to
// itself (which would add to its own self term).
void check_coupling(const std::string& what, const std::string& l1_name,
                    const std::string& l2_name, double k) {
  if (!(std::fabs(k) < 1.0)) throw std::invalid_argument(what + ": |k| must be below 1");
  if (l1_name == l2_name) throw std::invalid_argument(what + ": self coupling");
}

}  // namespace

std::size_t Circuit::add_coupling(const std::string& name, const std::string& l1_name,
                                  const std::string& l2_name, double k) {
  check_coupling("coupling " + name, l1_name, l2_name, k);
  check_unique(name);
  const std::size_t i1 = inductor_index(l1_name);
  const std::size_t i2 = inductor_index(l2_name);
  couplings_.push_back({name, i1, i2, k});
  return couplings_.size() - 1;
}

void Circuit::set_coupling(const std::string& l1_name, const std::string& l2_name,
                           double k) {
  check_coupling("set_coupling", l1_name, l2_name, k);
  const std::size_t i1 = inductor_index(l1_name);
  const std::size_t i2 = inductor_index(l2_name);
  for (Coupling& c : couplings_) {
    if ((c.l1 == i1 && c.l2 == i2) || (c.l1 == i2 && c.l2 == i1)) {
      c.k = k;
      return;
    }
  }
  couplings_.push_back({"K_" + l1_name + "_" + l2_name, i1, i2, k});
}

void Circuit::set_inductance(const std::string& name, double henries) {
  if (henries <= 0.0) throw std::invalid_argument("set_inductance: L <= 0");
  inductors_[inductor_index(name)].henries = henries;
}

void Circuit::set_switch_ac_state(const std::string& name, bool on) {
  for (Switch& s : switches_) {
    if (s.name == name) {
      s.ac_state_on = on;
      return;
    }
  }
  throw std::invalid_argument("no such switch: " + name);
}

std::size_t Circuit::add_vsource(const std::string& name, const std::string& n1,
                                 const std::string& n2, Waveform wave, double ac_mag,
                                 double ac_phase_deg) {
  check_unique(name);
  vsources_.push_back({name, intern(n1), intern(n2), std::move(wave), ac_mag,
                       ac_phase_deg});
  return vsources_.size() - 1;
}

std::size_t Circuit::add_isource(const std::string& name, const std::string& n1,
                                 const std::string& n2, Waveform wave, double ac_mag,
                                 double ac_phase_deg) {
  check_unique(name);
  isources_.push_back({name, intern(n1), intern(n2), std::move(wave), ac_mag,
                       ac_phase_deg});
  return isources_.size() - 1;
}

std::size_t Circuit::add_switch(const std::string& name, const std::string& n1,
                                const std::string& n2, Waveform control, double r_on,
                                double r_off) {
  if (r_on <= 0.0 || r_off <= r_on) {
    throw std::invalid_argument("switch " + name + ": need 0 < r_on < r_off");
  }
  check_unique(name);
  switches_.push_back({name, intern(n1), intern(n2), std::move(control), r_on, r_off,
                       true});
  return switches_.size() - 1;
}

std::size_t Circuit::add_diode(const std::string& name, const std::string& anode,
                               const std::string& cathode, double i_s, double n) {
  if (i_s <= 0.0 || n <= 0.0) throw std::invalid_argument("diode " + name + ": bad params");
  check_unique(name);
  diodes_.push_back({name, intern(anode), intern(cathode), i_s, n});
  return diodes_.size() - 1;
}

double Circuit::mutual(double k, std::size_t i1, std::size_t i2) const {
  return k * std::sqrt(inductors_[i1].henries * inductors_[i2].henries);
}

std::vector<std::vector<double>> Circuit::inductance_matrix() const {
  const std::size_t n = inductors_.size();
  std::vector<std::vector<double>> l(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) l[i][i] = inductors_[i].henries;
  for (const Coupling& c : couplings_) {
    const double m = mutual(c.k, c.l1, c.l2);
    l[c.l1][c.l2] += m;
    l[c.l2][c.l1] += m;
  }
  return l;
}

double Circuit::coupled_mutual(std::size_t i1, std::size_t i2, double k) const {
  // inductance_matrix()'s sum over the pair's couplings, in order, with the
  // first one's k replaced, or a new coupling at the end: set_coupling's
  // edit.
  double l = 0.0;
  bool replaced = false;
  for (const Coupling& c : couplings_) {
    if ((c.l1 == i1 && c.l2 == i2) || (c.l1 == i2 && c.l2 == i1)) {
      l += mutual(replaced ? c.k : k, c.l1, c.l2);
      replaced = true;
    }
  }
  if (!replaced) l += mutual(k, i1, i2);
  return l;
}

}  // namespace emi::ckt
