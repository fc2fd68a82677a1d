#include "src/flow/flow_units.hpp"

#include <algorithm>
#include <set>
#include <utility>

namespace emi::flow {

namespace {

// Degraded-retry quadrature: same physics, coarser integration.
peec::QuadratureOptions coarse_quadrature() {
  peec::QuadratureOptions q;
  q.order = std::max<std::size_t>(2, q.order / 2);
  q.subdivisions = 1;
  return q;
}

}  // namespace

FlowEngine::FlowEngine(BuckConverter& bc, const place::Layout& initial_layout,
                       const FlowOptions& opt, FlowCheckpoint ck)
    : bc_(bc),
      initial_layout_(initial_layout),
      opt_(opt),
      ck_(std::move(ck)),
      res_(ck_.result),
      // Both extractors run the exact kernel and attach to the caller's
      // (possibly tiered) cache when one is injected; quadrature options are
      // part of every cache key, so the exact and coarse extractors never
      // alias entries. A null cache keeps two private caches - the
      // pre-service behavior.
      extractor_(peec::QuadratureOptions{}, peec::KernelOptions{}, opt.extraction_cache),
      coarse_extractor_(coarse_quadrature(), peec::KernelOptions{}, opt.extraction_cache),
      pool0_(core::ThreadPool::global().stats()),
      kern0_(peec::kernel_stats()),
      driver_{&opt_,
              opt.total_budget_ms > 0 ? core::Deadline::after_ms(opt.total_budget_ms)
                                      : core::Deadline::unlimited(),
              &res_.diagnostics} {
  for (const auto& [l, mi] : bc_.inductor_model) candidates_.push_back(l);
  std::sort(candidates_.begin(), candidates_.end());
  ck_.context_digest = flow_context_digest(bc_, initial_layout_, opt_);
}

std::optional<FlowStage> FlowEngine::next_unit() const {
  if (halted_ || unit_idx_ >= kUnits.size()) return std::nullopt;
  return kUnits[unit_idx_];
}

void FlowEngine::halt_pipeline() {
  halted_ = true;
  res_.complete = false;
}

bool FlowEngine::checkpoint_after(FlowStage stage, bool ok_bit) {
  ck_.set(stage, ok_bit);
  if (!opt_.checkpoint_path.empty()) {
    const core::Status st = save_checkpoint_file(opt_.checkpoint_path, ck_);
    if (!st.ok()) res_.diagnostics.push_back({"flow.checkpoint", st, 1, false});
  }
  return opt_.stop_after_stage == flow_stage_name(stage);
}

bool FlowEngine::step() {
  if (halted_ || unit_idx_ >= kUnits.size()) return false;
  // Unit boundary = progress proof: beat the supervising watchdog's
  // heartbeat even when the unit is restored from a checkpoint and never
  // enters the stage driver.
  if (opt_.heartbeat) opt_.heartbeat();
  bool keep_going = false;
  switch (kUnits[unit_idx_]) {
    case FlowStage::kSensitivity:
      keep_going = unit_sensitivity();
      break;
    case FlowStage::kInitialPrediction:
      keep_going = unit_initial_prediction();
      break;
    case FlowStage::kRuleDerivation:
      keep_going = unit_rule_derivation();
      break;
    case FlowStage::kPlacement:
      keep_going = unit_placement();
      break;
    case FlowStage::kVerification:
      keep_going = unit_verification();
      break;
  }
  ++unit_idx_;
  return keep_going && unit_idx_ < kUnits.size();
}

// Step 1+2: sensitivity analysis on the coupling-capable inductors; pairs
// below kPruneThresholdDb are not field simulated. If the ranking is
// unavailable the flow degrades to the state of practice: simulate every
// pair, which is slower but never wrong. The pair selection is part of the
// unit's decided outcome, so a resume restores it from the checkpoint
// instead of re-deriving it.
bool FlowEngine::unit_sensitivity() {
  if (!ck_.done(FlowStage::kSensitivity)) {
    emi::sweep::SweepStats attempt_stats;
    const detail::StageOutcome so = driver_.run(
        "flow.sensitivity", [&](int attempt, int degrade) {
          core::ScopedTimer t(res_.profile, "flow.sensitivity_s");
          emc::SensitivityOptions sens_opt;
          sens_opt.sweep = detail::jittered(opt_.sweep, attempt);
          if (degrade > 0) {
            // Degraded retry after an expired budget: fewer sweep points,
            // down to 25 but never more than the undegraded attempt's.
            const std::size_t n = sens_opt.sweep.n_points;
            sens_opt.sweep.n_points = std::min(n, std::max<std::size_t>(25, n >> degrade));
          }
          sens_opt.candidates = candidates_;
          // The adaptive tolerances coarsen along the degradation ladder.
          // Stats are re-assigned per attempt so only the attempt that
          // decides the stage is counted.
          sens_opt.accel = opt_.sweep_accel;
          emc::SensitivityReport rep = emc::rank_coupling_sensitivity_report(
              bc_.circuit, bc_.meas_node, bc_.noise, sens_opt, degrade);
          res_.ranking = std::move(rep.ranking);
          attempt_stats = rep.stats;
        });
    if (so == detail::StageOutcome::kCancelled) {
      halt_pipeline();
      return false;
    }
    const bool sens_ok = so == detail::StageOutcome::kOk;
    if (sens_ok) sweep_stats_.merge(attempt_stats);
    res_.simulated_pairs.clear();
    res_.field_solves_saved = 0;
    if (sens_ok) {
      for (const auto& s : res_.ranking) {
        if (s.max_delta_db >= kPruneThresholdDb) {
          res_.simulated_pairs.emplace_back(s.inductor_a, s.inductor_b);
        } else {
          ++res_.field_solves_saved;
        }
      }
    } else {
      res_.ranking.clear();
      for (std::size_t i = 0; i < candidates_.size(); ++i) {
        for (std::size_t j = i + 1; j < candidates_.size(); ++j) {
          res_.simulated_pairs.emplace_back(candidates_[i], candidates_[j]);
        }
      }
    }
    if (checkpoint_after(FlowStage::kSensitivity, sens_ok)) {
      halt_pipeline();
      return false;
    }
  }
  res_.profile.add_count("flow.pairs_ranked", res_.ranking.size());
  res_.profile.add_count("flow.field_solves_saved", res_.field_solves_saved);
  return true;
}

// Step 3+4: extract couplings for the initial layout, predict emissions.
bool FlowEngine::unit_initial_prediction() {
  if (ck_.done(FlowStage::kInitialPrediction)) return true;
  emi::sweep::SweepStats attempt_stats;
  const detail::StageOutcome so = driver_.run(
      "flow.initial_prediction", [&](int attempt, int degrade) {
        core::ScopedTimer t(res_.profile, "flow.initial_prediction_s");
        const emc::EmissionSweepOptions sweep = detail::jittered(opt_.sweep, attempt);
        const ckt::Circuit coupled =
            circuit_with_couplings(bc_, initial_layout_, pick_extractor(degrade),
                                   kMinInstalledCoupling, res_.simulated_pairs);
        emc::AdaptiveEmissionResult coupled_res = emc::conducted_emission_adaptive(
            coupled, bc_.meas_node, bc_.noise, sweep, opt_.sweep_accel, degrade);
        emc::AdaptiveEmissionResult bare_res = emc::conducted_emission_adaptive(
            bc_.circuit, bc_.meas_node, bc_.noise, sweep, opt_.sweep_accel, degrade);
        res_.initial_prediction = std::move(coupled_res.spectrum);
        res_.initial_no_coupling = std::move(bare_res.spectrum);
        attempt_stats = coupled_res.stats;
        attempt_stats.merge(bare_res.stats);
      });
  if (so == detail::StageOutcome::kCancelled) {
    halt_pipeline();
    return false;
  }
  if (so != detail::StageOutcome::kOk) res_.complete = false;
  if (so == detail::StageOutcome::kOk) sweep_stats_.merge(attempt_stats);
  if (checkpoint_after(FlowStage::kInitialPrediction,
                       so == detail::StageOutcome::kOk)) {
    halt_pipeline();
    return false;
  }
  return true;
}

// Step 5: derive PEMD rules for the component pairs behind the simulated
// inductor pairs. Rules accumulate in a unit-local list so a retried
// attempt never installs duplicates; installation into the board happens
// after the outcome is decided, and therefore also on the resume path.
bool FlowEngine::unit_rule_derivation() {
  if (ck_.done(FlowStage::kRuleDerivation)) {
    rules_ok_ = ck_.ok(FlowStage::kRuleDerivation);
  } else {
    std::vector<emc::MinDistanceRule> derived;
    const detail::StageOutcome so = driver_.run(
        "flow.rule_derivation", [&](int, int degrade) {
          core::ScopedTimer t(res_.profile, "flow.rule_derivation_s");
          // Degraded retry: coarser quadrature and a coarser bisection
          // tolerance - rules stay conservative, just less finely resolved.
          emc::RuleDeriverOptions rule_opt;
          if (degrade > 0) rule_opt.tol = emc::Millimeters{1.0};
          const emc::RuleDeriver deriver(pick_extractor(degrade), rule_opt);
          std::set<std::pair<std::string, std::string>> done;
          std::vector<peec::ModelPair> todo;
          for (const auto& [la, lb] : res_.simulated_pairs) {
            const peec::ComponentFieldModel* ma = bc_.model_for_inductor(la);
            const peec::ComponentFieldModel* mb = bc_.model_for_inductor(lb);
            if (ma == nullptr || mb == nullptr) continue;
            auto key = std::minmax(ma->name, mb->name);
            if (!done.insert(key).second) continue;
            todo.emplace_back(ma, mb);
          }
          // One lockstep search over every pair: each level extracts all
          // open pairs' probes in one batch.
          derived = deriver.derive(todo);
        });
    if (so == detail::StageOutcome::kCancelled) {
      halt_pipeline();
      return false;
    }
    rules_ok_ = so == detail::StageOutcome::kOk;
    if (rules_ok_) res_.rules = std::move(derived);
    if (checkpoint_after(FlowStage::kRuleDerivation, rules_ok_)) {
      halt_pipeline();
      return false;
    }
  }
  if (rules_ok_) {
    for (const emc::MinDistanceRule& rule : res_.rules) {
      if (rule.pemd.raw() > 0.0) {
        bc_.board.add_emd_rule(rule.comp_a, rule.comp_b, rule.pemd);
      }
    }
  }

  // DRC of the initial layout against the derived rules (Fig 15). Cheap and
  // a pure function of restored state, so it is recomputed on resume rather
  // than serialized. The engine keeps the rule-snapshot DRC for the
  // verification unit.
  drc_.emplace(bc_.board);
  res_.drc_initial = drc_->check(initial_layout_);
  return true;
}

// Step 6: automatic placement. PWRLOOP stays preplaced (the switching cell
// location is fixed by the power semiconductors/heat sink). A missing
// PWRLOOP is a caller mistake, so it is checked before the retry loop and
// still raises.
bool FlowEngine::unit_placement() {
  const std::size_t loop_idx = bc_.board.component_index("PWRLOOP");
  if (ck_.done(FlowStage::kPlacement)) {
    place_ok_ = ck_.ok(FlowStage::kPlacement);
    bc_.board.components()[loop_idx].preplaced = true;
  } else {
    const detail::StageOutcome so = driver_.run(
        "flow.placement", [&](int, int degrade) {
          core::ScopedTimer t(res_.profile, "flow.placement_s");
          res_.improved_layout = place::Layout::unplaced(bc_.board);
          res_.improved_layout.placements[loop_idx] =
              initial_layout_.placements[loop_idx];
          bc_.board.components()[loop_idx].preplaced = true;
          place::AutoPlaceOptions popt;
          if (degrade > 0) {
            // Degraded retry: coarser candidate grid, fewer refinements.
            popt.placer.grid_step_mm *= static_cast<double>(1 << degrade);
            popt.placer.max_refines =
                popt.placer.max_refines > static_cast<std::size_t>(degrade)
                    ? popt.placer.max_refines - static_cast<std::size_t>(degrade)
                    : 1;
          }
          res_.place_stats = place::auto_place(bc_.board, res_.improved_layout, popt);
        });
    if (so == detail::StageOutcome::kCancelled) {
      halt_pipeline();
      return false;
    }
    place_ok_ = so == detail::StageOutcome::kOk;
    // Wall time is observability, not a result: zero it so checkpointed and
    // fresh stats compare bit-identical.
    res_.place_stats.elapsed_seconds = 0.0;
    if (checkpoint_after(FlowStage::kPlacement, place_ok_)) {
      halt_pipeline();
      return false;
    }
  }
  res_.profile.add_count("place.candidates_evaluated",
                         res_.place_stats.candidates_evaluated);
  return true;
}

// Step 7: verify - DRC (Fig 17) and re-predict emissions (Fig 2). Without
// a placed layout there is nothing to verify.
bool FlowEngine::unit_verification() {
  bool verify_ok = false;
  if (ck_.done(FlowStage::kVerification)) {
    verify_ok = ck_.ok(FlowStage::kVerification);
    if (verify_ok) res_.drc_improved = drc_->check(res_.improved_layout);
  } else if (place_ok_) {
    emi::sweep::SweepStats attempt_stats;
    const detail::StageOutcome so = driver_.run(
        "flow.verification", [&](int attempt, int degrade) {
          core::ScopedTimer t(res_.profile, "flow.verification_s");
          res_.drc_improved = drc_->check(res_.improved_layout);
          const ckt::Circuit improved_ckt =
              circuit_with_couplings(bc_, res_.improved_layout,
                                     pick_extractor(degrade), kMinInstalledCoupling,
                                     res_.simulated_pairs);
          const emc::EmissionSweepOptions sweep = detail::jittered(opt_.sweep, attempt);
          emc::AdaptiveEmissionResult improved = emc::conducted_emission_adaptive(
              improved_ckt, bc_.meas_node, bc_.noise, sweep, opt_.sweep_accel, degrade);
          res_.improved_prediction = std::move(improved.spectrum);
          attempt_stats = improved.stats;
        });
    if (so == detail::StageOutcome::kCancelled) {
      halt_pipeline();
      return false;
    }
    verify_ok = so == detail::StageOutcome::kOk;
    if (verify_ok) sweep_stats_.merge(attempt_stats);
    if (checkpoint_after(FlowStage::kVerification, verify_ok)) {
      halt_pipeline();
      return false;
    }
  }
  if (!place_ok_ || !verify_ok) res_.complete = false;

  if (!res_.initial_prediction.level_dbuv.empty() &&
      res_.initial_prediction.level_dbuv.size() ==
          res_.improved_prediction.level_dbuv.size()) {
    double best = 0.0;
    for (std::size_t i = 0; i < res_.initial_prediction.level_dbuv.size(); ++i) {
      best = std::max(best, res_.initial_prediction.level_dbuv[i] -
                                res_.improved_prediction.level_dbuv[i]);
    }
    res_.peak_improvement_db = best;
  }
  return true;
}

FlowResult FlowEngine::finish() {
  const peec::ExtractionCacheStats c0 = extractor_.cache_stats();
  const peec::ExtractionCacheStats c1 = coarse_extractor_.cache_stats();
  res_.profile.add_count("peec.self_cache_hits", c0.self_hits + c1.self_hits);
  res_.profile.add_count("peec.self_cache_misses", c0.self_misses + c1.self_misses);
  res_.profile.add_count("peec.mutual_cache_hits", c0.mutual_hits + c1.mutual_hits);
  res_.profile.add_count("peec.mutual_cache_misses",
                         c0.mutual_misses + c1.mutual_misses);
  // Kernel work done by this run: integrand evaluations and how many pairs
  // each path handled (process-wide counters, reported as deltas).
  const peec::KernelStats kern1 = peec::kernel_stats();
  res_.profile.add_count("peec.kernel_sample_evals",
                         kern1.sample_evals - kern0_.sample_evals);
  res_.profile.add_count("peec.kernel_exact_pairs",
                         kern1.exact_pairs - kern0_.exact_pairs);
  res_.profile.add_count("peec.kernel_cluster_pairs",
                         kern1.cluster_pairs - kern0_.cluster_pairs);
  res_.profile.add_count("peec.kernel_cluster_skipped",
                         kern1.cluster_skipped - kern0_.cluster_skipped);
  // Sweep economics: always present so profile consumers (and the serve
  // STATS verb) can rely on the entries. full_solves counts every solved
  // point, dense or adaptive, and resumed_solves those of them that resumed
  // a baseline's factorization (exact sensitivity; not on the STATS wire);
  // the other three stay zero unless FlowOptions::sweep_accel.adaptive is
  // set.
  res_.profile.add_count("sweep.full_solves", sweep_stats_.full_solves);
  res_.profile.add_count("sweep.resumed_solves", sweep_stats_.resumed_solves);
  res_.profile.add_count("sweep.interp_points", sweep_stats_.interp_points);
  res_.profile.add_count("sweep.surrogate_evals", sweep_stats_.surrogate_evals);
  res_.profile.add_count("sweep.escalations", sweep_stats_.escalations);
  res_.profile.max_gauge("sweep.max_residual_db", sweep_stats_.max_residual_db);
  const core::PoolStats pool1 = core::ThreadPool::global().stats();
  res_.profile.add_count("pool.threads", core::ThreadPool::global_thread_count());
  res_.profile.add_count("pool.batches", pool1.batches - pool0_.batches);
  res_.profile.add_count("pool.chunks", pool1.chunks - pool0_.chunks);
  res_.profile.add_count("pool.steals", pool1.steals - pool0_.steals);
  res_.profile.add_count("pool.serial_fallbacks",
                         pool1.serial_fallbacks - pool0_.serial_fallbacks);
  return std::move(res_);
}

FlowResult FlowEngine::run() {
  while (step()) {
  }
  return finish();
}

}  // namespace emi::flow
