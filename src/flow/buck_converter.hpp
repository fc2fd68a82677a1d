// The paper's validation vehicle: an automotive 12 V buck converter with
// input pi-filter and output filter, measured against CISPR 25 (Figs 1, 2,
// 11-17). This module builds
//   - the system-level circuit (with capacitor ESL/ESR parasitics and trace
//     loop inductances, per the paper's workflow),
//   - the PEEC field models of every coupling-relevant component,
//   - the placement design database (board outline, groups, nets),
//   - the two reference layouts: unfavorable (Fig 1) and optimized (Fig 2),
// and the glue that turns a *layout* into *circuit couplings*: for every
// pair of mapped inductors the coupling factor is extracted from the field
// models at their placed poses and installed as a K element.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "src/ckt/circuit.hpp"
#include "src/emi/noise_source.hpp"
#include "src/peec/coupling.hpp"
#include "src/place/design.hpp"

namespace emi::flow {

struct BuckConverter {
  // Circuit without any magnetic couplings installed.
  ckt::Circuit circuit;
  std::string meas_node;           // LISN measurement node
  std::string noise_source;        // name of the unit AC noise source
  emc::TrapezoidSpectrum noise{};  // switching-cell spectral envelope

  // Field models, stable storage; `inductor_model` maps circuit inductor
  // names (the coupling-capable elements) to indices into `models`.
  std::vector<peec::ComponentFieldModel> models;
  std::unordered_map<std::string, std::size_t> inductor_model;

  // Placement design: component names match the field-model names.
  place::Design board;

  // Hot circuit node of each board component - where a parasitic
  // capacitance from that component's body injects. Used by the capacitive
  // coupling extension (the paper: "capacitive coupling gains more
  // influence at higher frequencies").
  std::unordered_map<std::string, std::string> component_node;

  // Name lookup helpers.
  const peec::ComponentFieldModel* model_for_inductor(const std::string& l) const;
  const peec::ComponentFieldModel* model_for_component(const std::string& c) const;
  // Circuit inductor mapped to a board component (inverse of the model map).
  std::vector<std::pair<std::string, std::string>> inductor_component_pairs() const;
};

// The struct is topology-agnostic (circuit + field models + board); the
// alias names that intent for non-buck factories.
using ConverterModel = BuckConverter;

// Construct the reference converter (300 kHz, 12 V automotive input).
BuckConverter make_buck_converter();

// A second topology through the same pipeline: an automotive 12 V -> 24 V
// boost converter. The EMI character differs from the buck: the input
// current is continuous (the boost inductor smooths it), so the conducted
// DM noise is dominated by the switch-node ripple reaching the filter
// through the boost inductor's stray field and the output loop - a
// different set of critical couplings for the sensitivity analysis to find.
ConverterModel make_boost_converter();

// Reference layouts for the boost board.
place::Layout boost_layout_unfavorable(const ConverterModel& bc);
place::Layout boost_layout_optimized(const ConverterModel& bc);

// The two layouts of the paper's experiment: same components, same
// topology, same board - only placement differs.
place::Layout layout_unfavorable(const BuckConverter& bc);  // Fig 1
place::Layout layout_optimized(const BuckConverter& bc);    // Fig 2

// Couplings weaker than this are not installed in the circuit: two orders
// below the paper's k = 0.01 rule threshold.
inline constexpr double kMinInstalledCoupling = 1e-4;

// Extract coupling factors for a layout and return the circuit with K
// elements installed (pairs with |k| < k_min are dropped). `pairs` limits
// extraction to the given inductor-name pairs (empty = all mapped pairs) -
// the hook for sensitivity-pruned extraction.
ckt::Circuit circuit_with_couplings(
    const BuckConverter& bc, const place::Layout& layout,
    const peec::CouplingExtractor& extractor, double k_min = kMinInstalledCoupling,
    const std::vector<std::pair<std::string, std::string>>& pairs = {});

// Pose of a board component's field model under a placement.
peec::Pose pose_of(const BuckConverter& bc, const place::Layout& layout,
                   const std::string& component);

// Add body-to-body parasitic capacitances for a layout on top of `base`
// (typically the output of circuit_with_couplings). Pairs whose extracted
// capacitance is below c_min_farad are skipped.
ckt::Circuit add_parasitic_capacitances(const BuckConverter& bc,
                                        const place::Layout& layout,
                                        ckt::Circuit base,
                                        double c_min_farad = 10e-15);

}  // namespace emi::flow
