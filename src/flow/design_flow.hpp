// The end-to-end methodology of the paper, as one callable pipeline:
//
//   1. circuit simulation with parasitics        (ckt)
//   2. sensitivity analysis of coupling factors  (emc::rank_coupling_sensitivity)
//   3. PEEC extraction of the relevant couplings (peec::CouplingExtractor)
//   4. interference prediction                   (emc::conducted_emission)
//   5. design-rule derivation (PEMD table)       (emc::RuleDeriver)
//   6. automatic placement honoring the rules    (place::auto_place)
//   7. re-extraction + verification
//
// "Using the proposed approach in the design stage allows both a statement
// on achievable performance with the given components and the minimization
// of the system volume."
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "src/core/deadline.hpp"
#include "src/core/profile.hpp"
#include "src/core/status.hpp"
#include "src/emi/measurement.hpp"
#include "src/emi/rules.hpp"
#include "src/emi/sensitivity.hpp"
#include "src/flow/buck_converter.hpp"
#include "src/peec/extraction_cache.hpp"
#include "src/place/drc.hpp"
#include "src/place/metrics.hpp"
#include "src/place/placer.hpp"

namespace emi::flow {

// What a caller sets about one flow run. The paper's design parameters are
// fixed, not options: the flow prunes pairs below a 1 dB emission impact
// before field simulation (FlowEngine::kPruneThresholdDb), derives PEMD
// rules at k = 0.01 (emc::RuleDeriverOptions{}), installs couplings down to
// kMinInstalledCoupling, extracts with the default quadrature and the exact
// kernel, places with place::AutoPlaceOptions{}, and gives every stage two
// attempts (detail::kStageAttempts). flow_context_digest records them so a
// checkpoint still names the configuration it was written under.
struct FlowOptions {
  emc::EmissionSweepOptions sweep{};
  // The sweep switch (sweep::SweepAccel): `adaptive` selects adaptive
  // frequency refinement for the dense emission sweeps and the
  // Sherman-Morrison coupling model for the per-pair sensitivity sweeps. The
  // default keeps every sweep dense and exact, so flow results stay
  // bit-identical to older builds; when set it joins the checkpoint context
  // digest, and its tolerances double per step of the deadline ladder
  // (sweep::tol_db / sweep::gate_db). Economics surface as `sweep.*` profile
  // counters.
  emi::sweep::SweepAccel sweep_accel{};

  // Time budgets (milliseconds; 0 = unlimited). The total budget bounds the
  // whole flow, the stage budget bounds each attempt of each stage; an
  // attempt runs under the tighter of the two. Expiry is cooperative (poll
  // points inside extraction / AC sweeps / placement) and surfaces as a
  // kDeadlineExceeded StageDiagnostic - never a hang or a throw out of
  // run_design_flow. An expired attempt is retried in *degraded* form
  // (coarser quadrature, coarser placement grid, fewer sensitivity points);
  // once the total budget is gone, remaining stages are skipped and the
  // partial FlowResult comes back with complete=false. Degradation decisions
  // are made only at attempt boundaries, so a run that takes a given
  // degradation path is bit-identical to any other run taking that path.
  std::int64_t total_budget_ms = 0;
  std::int64_t stage_budget_ms = 0;
  // Optional cooperative cancellation (operator Ctrl-C, supervising
  // service). Raising it stops the flow at the next poll point; the current
  // stage's output is discarded and the partial result carries a kCancelled
  // diagnostic. Not owned; may be null.
  core::CancelToken* cancel = nullptr;

  // Liveness heartbeat for a supervising service's hung-job watchdog:
  // called at every stage-attempt boundary and unit step - the flow's
  // progress points. Never called mid-chunk, so it cannot perturb results;
  // deliberately NOT part of the checkpoint context digest. May be empty.
  std::function<void()> heartbeat;

  // Shared extraction cache (two-tier; see peec/extraction_cache.hpp). When
  // set, every extractor the flow builds attaches to it, so repeated runs -
  // e.g. the jobs of one service session - reuse each other's extracted
  // geometry. Null keeps per-extractor private caches, the pre-service
  // behavior. Deliberately NOT part of the checkpoint context: cached values
  // are pure functions of their keys, so cache topology never changes result
  // bits.
  std::shared_ptr<peec::ExtractionCache> extraction_cache;

  // Crash safety: when non-empty, a versioned checkpoint (see
  // flow/checkpoint.hpp) is atomically rewritten at this path after every
  // stage whose outcome became final, and resume_design_flow() can pick the
  // run up from it.
  std::string checkpoint_path;
  // Deterministic crash stand-in for tests: return right after the named
  // stage's checkpoint is written ("sensitivity", "initial_prediction",
  // "rule_derivation", "placement", "verification"). The file state is
  // exactly what a SIGKILL after that write would leave. Empty = off.
  std::string stop_after_stage;
};

// One entry per stage that did not succeed on its first attempt. `recovered`
// means a retry eventually went through; otherwise the stage was skipped or
// degraded and FlowResult::complete is false for critical stages.
struct StageDiagnostic {
  std::string stage;    // "flow.sensitivity", "flow.placement", ...
  core::Status status;  // last failure observed for this stage
  int attempts = 0;     // attempts consumed (including the failing ones)
  bool recovered = false;
};

struct FlowResult {
  // Prediction for the initial layout.
  emc::EmissionSpectrum initial_prediction;
  emc::EmissionSpectrum initial_no_coupling;  // the state-of-practice baseline
  // Sensitivity ranking and the pairs selected for field simulation.
  std::vector<emc::CouplingSensitivity> ranking;
  std::vector<std::pair<std::string, std::string>> simulated_pairs;
  std::size_t field_solves_saved = 0;  // pairs pruned by sensitivity
  // Derived rules (installed into the returned design).
  std::vector<emc::MinDistanceRule> rules;
  // Placement results.
  place::Layout improved_layout;
  place::PlaceStats place_stats;
  place::DrcReport drc_initial;
  place::DrcReport drc_improved;
  // Prediction for the improved layout.
  emc::EmissionSpectrum improved_prediction;
  // Emission deltas.
  double peak_improvement_db = 0.0;  // max over frequency of initial - improved
  // Per-stage wall times (flow.*), extraction cache traffic (peec.*),
  // placement work (place.*) and pool activity (pool.*) for this run.
  // Printed by io::write_profile.
  core::Profile profile;
  // Robustness bookkeeping: every stage that needed a retry or failed
  // outright leaves a diagnostic. `complete` is false when a stage the
  // downstream results depend on (predictions, placement, verification)
  // ultimately failed; the populated fields up to that stage remain valid.
  std::vector<StageDiagnostic> diagnostics;
  bool complete = true;
};

// Run the full flow on a converter starting from `initial_layout`.
// `bc.board` is extended in place with the derived EMD rules.
//
// Never throws for numeric/injected failures inside stages: those come back
// as a partial FlowResult with `diagnostics` filled in. Caller mistakes
// (e.g. a design without PWRLOOP) still raise std::invalid_argument.
FlowResult run_design_flow(BuckConverter& bc, const place::Layout& initial_layout,
                           const FlowOptions& opt = {});

// Resume a flow from the checkpoint at opt.checkpoint_path: stages recorded
// as decided are skipped (their serialized results restored), the rest run
// normally. By the determinism contract the resumed FlowResult is
// bit-identical to an uninterrupted run's (profile timings aside). A
// missing, corrupt, truncated, or configuration-mismatched checkpoint is
// rejected: nothing runs and the returned partial result carries the
// structured reason (kIoError / line-numbered kParseError /
// kFailedPrecondition) as a "flow.checkpoint" diagnostic.
FlowResult resume_design_flow(BuckConverter& bc, const place::Layout& initial_layout,
                              const FlowOptions& opt);

}  // namespace emi::flow
