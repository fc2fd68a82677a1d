#include "src/flow/buck_converter.hpp"

#include "src/peec/capacitance.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

namespace emi::flow {

namespace {

// Switching parameters of the reference converter: 300 kHz hard-switched
// cell on 12 V automotive input, 30 ns edges, ~42 % duty.
constexpr double kFsw = 300e3;
constexpr double kVin = 12.0;
constexpr double kEdge = 30e-9;
constexpr double kDuty = 0.42;

}  // namespace

const peec::ComponentFieldModel* BuckConverter::model_for_inductor(
    const std::string& l) const {
  const auto it = inductor_model.find(l);
  return it == inductor_model.end() ? nullptr : &models[it->second];
}

const peec::ComponentFieldModel* BuckConverter::model_for_component(
    const std::string& c) const {
  for (const auto& m : models) {
    if (m.name == c) return &m;
  }
  return nullptr;
}

std::vector<std::pair<std::string, std::string>>
BuckConverter::inductor_component_pairs() const {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(inductor_model.size());
  for (const auto& [l, mi] : inductor_model) out.emplace_back(l, models[mi].name);
  // Hash-map iteration order is a library detail; sort so the pair list is
  // identical on every platform (det_lint: unordered iteration feeds output).
  std::sort(out.begin(), out.end());
  return out;
}

BuckConverter make_buck_converter() {
  BuckConverter bc;
  ckt::Circuit& c = bc.circuit;

  // --- circuit -------------------------------------------------------------
  // Battery feeds the LISN; for AC analysis it is quiet (ac_mag = 0).
  c.add_vsource("VBATT", "batt", "0", ckt::Waveform::dc(kVin));

  // CISPR 25 artificial network between battery and converter input.
  c.add_inductor("L_LISN", "batt", "vin", 5e-6);
  c.add_resistor("R_LISN_D", "batt", "vin", 1000.0);
  c.add_capacitor("C_LISN", "vin", "lisn_meas", 0.1e-6);
  c.add_resistor("R_LISN_M", "lisn_meas", "0", 50.0);
  bc.meas_node = "lisn_meas";

  // Input pi-filter: CX1 | LF | CX2, each capacitor with its ESL and ESR -
  // the parasitics the paper insists on ("equivalent series inductance (ESL)
  // of capacitors or inductances of lines").
  c.add_inductor("L_CX1", "vin", "cx1_a", 15e-9);
  c.add_resistor("R_CX1", "cx1_a", "cx1_b", 0.03);
  c.add_capacitor("C_CX1", "cx1_b", "0", 3.3e-6);

  c.add_inductor("L_F", "vin", "nmid", 100e-6);
  c.add_capacitor("C_F_PAR", "vin", "nmid", 15e-12);  // choke winding capacitance
  c.add_resistor("R_F", "vin", "nmid", 15e3);         // core-loss damping

  c.add_inductor("L_CX2", "nmid", "cx2_a", 15e-9);
  c.add_resistor("R_CX2", "cx2_a", "cx2_b", 0.03);
  c.add_capacitor("C_CX2", "cx2_b", "0", 3.3e-6);

  // Power-loop trace between filter output and switching cell.
  c.add_inductor("L_LOOP", "nmid", "nsw", 25e-9);

  // Bulk electrolytic at the cell.
  c.add_inductor("L_CE1", "nsw", "ce1_a", 18e-9);
  c.add_resistor("R_CE1", "ce1_a", "ce1_b", 0.04);
  c.add_capacitor("C_CE1", "ce1_b", "0", 100e-6);

  // The switching cell as a noise source: unit AC magnitude (shaped by the
  // trapezoid envelope at sweep time) behind the cell's parasitic
  // inductance.
  c.add_vsource("V_NOISE", "nz", "0", ckt::Waveform::dc(0.0), /*ac_mag=*/1.0);
  c.add_inductor("L_CELL", "nz", "nsw", 10e-9);

  // Output stage: buck inductor, output electrolytic, load.
  c.add_inductor("L_BUCK", "nsw", "vout", 100e-6);
  c.add_inductor("L_CO", "vout", "co_a", 14e-9);
  c.add_resistor("R_CO", "co_a", "co_b", 0.025);
  c.add_capacitor("C_CO", "co_b", "0", 220e-6);
  c.add_resistor("R_LOAD", "vout", "0", 5.0);

  bc.noise_source = "V_NOISE";
  const double period = 1.0 / kFsw;
  bc.noise = emc::spectrum_params(ckt::Waveform::trapezoid(
      0.0, kVin, period, kEdge, kDuty * period - kEdge, kEdge));

  // --- field models ---------------------------------------------------------
  peec::XCapacitorParams xcap;          // 3.3 uF film X-capacitor
  peec::ElectrolyticCapParams elcap;
  peec::BobbinCoilParams filter_coil;   // input filter choke
  filter_coil.radius = peec::Millimeters{6.0};
  filter_coil.length = peec::Millimeters{14.0};
  filter_coil.turns = 42;
  peec::BobbinCoilParams buck_coil;     // buck inductor, larger
  buck_coil.radius = peec::Millimeters{8.0};
  buck_coil.length = peec::Millimeters{16.0};
  buck_coil.turns = 48;

  bc.models.push_back(peec::x_capacitor("CX1", xcap));
  bc.models.push_back(peec::x_capacitor("CX2", xcap));
  bc.models.push_back(peec::bobbin_coil("LF", filter_coil));
  bc.models.push_back(peec::bobbin_coil("LBUCK", buck_coil));
  bc.models.push_back(peec::electrolytic_capacitor("CE1", elcap));
  bc.models.push_back(peec::electrolytic_capacitor("CE2", elcap));
  // Switching-cell power loop: a flat loop in the board plane (normal +z).
  {
    peec::ComponentFieldModel loop;
    loop.name = "PWRLOOP";
    loop.kind = peec::ModelKind::kTrace;
    peec::SegmentPath p;
    const double w = 14.0, h = 9.0, z = 1.0, r = 0.6;
    const peec::Vec3 p0{-w / 2, -h / 2, z}, p1{w / 2, -h / 2, z}, p2{w / 2, h / 2, z},
        p3{-w / 2, h / 2, z};
    p.segments = {{p0, p1, r, 1.0}, {p1, p2, r, 1.0}, {p2, p3, r, 1.0}, {p3, p0, r, 1.0}};
    loop.local_path = std::move(p);
    loop.local_axis = {0.0, 0.0, 1.0};
    bc.models.push_back(std::move(loop));
  }

  const auto model_index = [&](const std::string& name) {
    for (std::size_t i = 0; i < bc.models.size(); ++i) {
      if (bc.models[i].name == name) return i;
    }
    throw std::logic_error("model not found: " + name);
  };
  bc.inductor_model = {
      {"L_CX1", model_index("CX1")},   {"L_CX2", model_index("CX2")},
      {"L_F", model_index("LF")},      {"L_BUCK", model_index("LBUCK")},
      {"L_CE1", model_index("CE1")},   {"L_CO", model_index("CE2")},
      {"L_LOOP", model_index("PWRLOOP")},
  };

  // --- placement design ------------------------------------------------------
  place::Design& b = bc.board;
  b.set_clearance(place::Millimeters{1.0});
  b.set_board_count(1);
  b.add_area({"board", 0, geom::Polygon::rectangle(
                             geom::Rect::from_corners({0.0, 0.0}, {70.0, 50.0}))});

  const auto add = [&](const std::string& name, double w, double d, double h,
                       double axis, const std::string& group) {
    place::Component comp;
    comp.name = name;
    comp.width_mm = w;
    comp.depth_mm = d;
    comp.height_mm = h;
    comp.axis_deg = axis;
    comp.group = group;
    b.add_component(std::move(comp));
  };
  // Magnetic axes: capacitor loop normal is +y at rotation 0 (axis 90 deg);
  // bobbin coil axis is +y too (the solenoid axis).
  add("CX1", 26.0, 10.0, 12.0, 90.0, "input_filter");
  add("CX2", 26.0, 10.0, 12.0, 90.0, "input_filter");
  add("LF", 14.0, 16.0, 14.0, 90.0, "input_filter");
  add("LBUCK", 18.0, 20.0, 18.0, 90.0, "power");
  add("CE1", 10.0, 10.0, 14.0, 90.0, "power");
  add("CE2", 10.0, 10.0, 14.0, 90.0, "output");
  add("PWRLOOP", 16.0, 11.0, 3.0, 0.0, "power");

  b.add_net({"N_VIN", {{"CX1", ""}, {"LF", ""}}, 80.0});
  b.add_net({"N_MID", {{"LF", ""}, {"CX2", ""}, {"PWRLOOP", ""}}, 80.0});
  b.add_net({"N_SW", {{"PWRLOOP", ""}, {"CE1", ""}, {"LBUCK", ""}}, 60.0});
  b.add_net({"N_OUT", {{"LBUCK", ""}, {"CE2", ""}}, 60.0});

  // Hot node of each component body (for capacitive coupling extraction).
  bc.component_node = {
      {"CX1", "vin"},    {"CX2", "nmid"}, {"LF", "nmid"},  {"LBUCK", "nsw"},
      {"CE1", "nsw"},    {"CE2", "vout"}, {"PWRLOOP", "nsw"},
  };

  return bc;
}

namespace {

place::Layout layout_from_table(
    const BuckConverter& bc,
    const std::vector<std::tuple<std::string, double, double, double>>& table) {
  place::Layout l = place::Layout::unplaced(bc.board);
  for (const auto& [name, x, y, rot] : table) {
    const std::size_t i = bc.board.component_index(name);
    l.placements[i] = {{x, y}, rot, 0, true};
  }
  return l;
}

}  // namespace

place::Layout layout_unfavorable(const BuckConverter& bc) {
  // Everything packed tightly in a row, magnetic axes parallel - the Fig 1
  // board: legal by conventional rules, bad by coupling.
  return layout_from_table(bc, {
                                   {"CX1", 15.0, 8.0, 0.0},
                                   {"CX2", 15.0, 22.0, 0.0},
                                   {"LF", 15.0, 38.0, 0.0},
                                   {"PWRLOOP", 40.0, 10.0, 0.0},
                                   {"CE1", 40.0, 24.0, 0.0},
                                   {"LBUCK", 58.0, 14.0, 0.0},
                                   {"CE2", 58.0, 38.0, 0.0},
                               });
}

place::Layout layout_optimized(const BuckConverter& bc) {
  // The Fig 2 board: same parts, spread out and axis-decoupled (90 deg
  // rotations between the critical pairs).
  // CX2 sits perpendicular AND purely axially offset from CX1: for two
  // orthogonal magnetic dipoles displaced along one dipole axis the mutual
  // inductance vanishes exactly - the strongest form of the Fig 6 rule.
  return layout_from_table(bc, {
                                   {"CX1", 14.0, 7.0, 0.0},
                                   {"CX2", 14.0, 31.0, 90.0},
                                   {"LF", 29.0, 40.0, 90.0},
                                   {"PWRLOOP", 48.0, 12.0, 0.0},
                                   {"CE1", 43.0, 24.0, 0.0},
                                   {"LBUCK", 59.0, 30.0, 90.0},
                                   {"CE2", 64.0, 45.0, 90.0},
                               });
}

peec::Pose pose_of(const BuckConverter& bc, const place::Layout& layout,
                   const std::string& component) {
  const std::size_t i = bc.board.component_index(component);
  const place::Placement& p = layout.placements[i];
  if (!p.placed) throw std::invalid_argument("pose_of: " + component + " not placed");
  return peec::Pose{{p.position.x, p.position.y, 0.0}, p.rot_deg};
}

ckt::Circuit circuit_with_couplings(
    const BuckConverter& bc, const place::Layout& layout,
    const peec::CouplingExtractor& extractor, double k_min,
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  ckt::Circuit c = bc.circuit;

  // Enumerate the inductor pairs to extract.
  std::vector<std::pair<std::string, std::string>> todo = pairs;
  if (todo.empty()) {
    std::vector<std::string> names;
    for (const auto& [l, mi] : bc.inductor_model) names.push_back(l);
    std::sort(names.begin(), names.end());
    for (std::size_t i = 0; i < names.size(); ++i) {
      for (std::size_t j = i + 1; j < names.size(); ++j) {
        todo.emplace_back(names[i], names[j]);
      }
    }
  }

  // One coupling batch for the whole pair list: one mutual batch (one cache
  // probe, one flat parallel region over the unique canonical poses) and one
  // self batch for both self terms of every pair, with each model digested
  // once. Each k is the one coupling_factor gives its pair, bit for bit.
  std::vector<peec::PlacedModel> models;
  std::unordered_map<std::string, std::size_t> model_of;
  std::vector<peec::IndexPair> idx;
  idx.reserve(todo.size());
  const auto placed_index = [&](const std::string& l) {
    const auto it = model_of.find(l);
    if (it != model_of.end()) return it->second;
    const peec::ComponentFieldModel* m = bc.model_for_inductor(l);
    if (m == nullptr) return static_cast<std::size_t>(-1);
    models.push_back({m, pose_of(bc, layout, m->name)});
    return model_of.emplace(l, models.size() - 1).first->second;
  };
  for (const auto& [la, lb] : todo) {
    const std::size_t ia = placed_index(la);
    const std::size_t ib = placed_index(lb);
    if (ia == static_cast<std::size_t>(-1) || ib == static_cast<std::size_t>(-1)) {
      throw std::invalid_argument("circuit_with_couplings: unmapped inductor pair " +
                                  la + "/" + lb);
    }
    idx.emplace_back(ia, ib);
  }
  const std::vector<double> ks = extractor.coupling_batch(models, idx);

  for (std::size_t p = 0; p < todo.size(); ++p) {
    const auto& [la, lb] = todo[p];
    const double k = ks[p];
    if (std::fabs(k) >= k_min) {
      // K magnitudes are capped defensively: the simplified field models can
      // overestimate k for overlapping footprints, and |k| >= 1 would be
      // unphysical in the circuit.
      c.set_coupling(la, lb, std::clamp(k, -0.95, 0.95));
    }
  }
  return c;
}

ckt::Circuit add_parasitic_capacitances(const BuckConverter& bc,
                                        const place::Layout& layout,
                                        ckt::Circuit base, double c_min_farad) {
  // Component bodies as equivalent spheres at their placed positions.
  std::vector<std::pair<std::string, peec::Body>> bodies;
  for (const auto& [comp, node] : bc.component_node) {
    const std::size_t ci = bc.board.component_index(comp);
    const place::Placement& p = layout.placements[ci];
    if (!p.placed) continue;
    const place::Component& pc = bc.board.components()[ci];
    peec::Body body;
    body.center_mm = {p.position.x, p.position.y, pc.height_mm / 2.0};
    body.equiv_radius = peec::body_equivalent_radius(peec::Millimeters{pc.width_mm},
                                                     peec::Millimeters{pc.depth_mm},
                                                     peec::Millimeters{pc.height_mm});
    bodies.emplace_back(comp, body);
  }
  std::sort(bodies.begin(), bodies.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  for (std::size_t i = 0; i < bodies.size(); ++i) {
    for (std::size_t j = i + 1; j < bodies.size(); ++j) {
      const std::string& node_a = bc.component_node.at(bodies[i].first);
      const std::string& node_b = bc.component_node.at(bodies[j].first);
      if (node_a == node_b) continue;  // same net: no interference path
      const double cap =
          peec::body_capacitance(bodies[i].second, bodies[j].second).raw();
      if (cap >= c_min_farad) {
        base.add_capacitor("CP_" + bodies[i].first + "_" + bodies[j].first, node_a,
                           node_b, cap);
      }
    }
  }
  return base;
}

}  // namespace emi::flow
