// Bit pins of the PEMD rule tables. Each row is one rule the flow derives:
// the buck flow's 11 and the boost flow's 14, at 60 sweep points with a cold
// extractor, as IEEE-754 bit patterns. `exact` is the rule under the flow's
// default configuration, `degraded` the same pair under its degraded retry
// (quadrature order 3, 1 subdivision, 1 mm bisection tolerance).
//
// The rules must come out with these bits whichever way they are derived:
// through the flow, through one lockstep search over the whole pair list,
// or through one search per pair, at 1 and at 4 lanes. A change that moves
// a row must say why.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/deadline.hpp"
#include "src/core/thread_pool.hpp"
#include "src/emi/rules.hpp"
#include "src/flow/buck_converter.hpp"
#include "src/flow/design_flow.hpp"
#include "src/peec/partial_inductance.hpp"

namespace emi::flow {
namespace {

struct PinnedRule {
  const char* comp_a;
  const char* comp_b;
  std::uint64_t exact;
  std::uint64_t degraded;
};

// 21.529297 / 22.109375, 2 / 2, 30.810547 / 31.390625, ...
const std::vector<PinnedRule> kBuckRules = {
    {"CE1", "CX1", 0x4035878000000000ull, 0x40361c0000000000ull},
    {"CX1", "PWRLOOP", 0x4000000000000000ull, 0x4000000000000000ull},
    {"CX1", "CX2", 0x403ecf8000000000ull, 0x403f640000000000ull},
    {"LBUCK", "CX1", 0x4035ea8000000000ull, 0x40361c0000000000ull},
    {"CE1", "LF", 0x4025ca0000000000ull, 0x4026900000000000ull},
    {"LF", "PWRLOOP", 0x4000000000000000ull, 0x4000000000000000ull},
    {"CX1", "LF", 0x4033fb8000000000ull, 0x402cc00000000000ull},  // 19.982 / 14.375
    {"CX2", "LF", 0x4033fb8000000000ull, 0x402cc00000000000ull},
    {"CE2", "CX1", 0x4035878000000000ull, 0x40361c0000000000ull},
    {"LBUCK", "LF", 0x4023780000000000ull, 0x4023780000000000ull},
    {"CX2", "PWRLOOP", 0x4000000000000000ull, 0x4000000000000000ull},
};

// The CX-LF rows (13.601562 mm) stop at the inner sign change of k(d); the
// outer crossing is near 18.9 mm (ROADMAP item 5).
const std::vector<PinnedRule> kBoostRules = {
    {"CO", "CX1", 0x4035878000000000ull, 0x40361c0000000000ull},
    {"CX1", "PWRLOOP", 0x4000000000000000ull, 0x4000000000000000ull},
    {"LBOOST", "CX1", 0x40364d8000000000ull, 0x4036e20000000000ull},
    {"CO", "LF", 0x4024a10000000000ull, 0x4025040000000000ull},
    {"PWRLOOP", "LF", 0x4000000000000000ull, 0x4000000000000000ull},
    {"LBOOST", "LF", 0x4022b20000000000ull, 0x4023780000000000ull},
    {"CX1", "CX2", 0x403ecf8000000000ull, 0x403f640000000000ull},
    {"CO", "CX2", 0x4035878000000000ull, 0x40361c0000000000ull},
    {"CX2", "PWRLOOP", 0x4000000000000000ull, 0x4000000000000000ull},
    {"CX2", "LF", 0x402b340000000000ull, 0x402b340000000000ull},
    {"CX1", "LF", 0x402b340000000000ull, 0x402b340000000000ull},
    {"LBOOST", "CX2", 0x40364d8000000000ull, 0x4036e20000000000ull},
    {"LBOOST", "PWRLOOP", 0x4000000000000000ull, 0x4000000000000000ull},
    {"LBOOST", "CO", 0x4029a80000000000ull, 0x4029a80000000000ull},
};

std::uint64_t bits(units::Millimeters d) { return std::bit_cast<std::uint64_t>(d.raw()); }

BuckConverter make(bool boost) {
  return boost ? make_boost_converter() : make_buck_converter();
}

const std::vector<PinnedRule>& pins(bool boost) { return boost ? kBoostRules : kBuckRules; }

std::vector<peec::ModelPair> pinned_pairs(const BuckConverter& bc, bool boost) {
  std::vector<peec::ModelPair> pairs;
  for (const PinnedRule& r : pins(boost)) {
    pairs.emplace_back(bc.model_for_component(r.comp_a), bc.model_for_component(r.comp_b));
  }
  return pairs;
}

// The flow's two rule configurations: its exact extractor and default
// tolerance, or the degraded retry's coarse quadrature and 1 mm tolerance.
struct RuleConfig {
  peec::QuadratureOptions quadrature;
  emc::RuleDeriverOptions rules;
};
RuleConfig config(bool degraded) {
  RuleConfig c;
  if (degraded) {
    c.quadrature = peec::QuadratureOptions{3, 1};
    c.rules.tol = units::Millimeters{1.0};
  }
  return c;
}

void expect_pinned(const std::vector<emc::MinDistanceRule>& got, bool boost, bool degraded,
                   const std::string& how) {
  const std::vector<PinnedRule>& want = pins(boost);
  ASSERT_EQ(got.size(), want.size()) << how;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].comp_a, want[i].comp_a) << how << " row " << i;
    EXPECT_EQ(got[i].comp_b, want[i].comp_b) << how << " row " << i;
    EXPECT_EQ(bits(got[i].pemd), degraded ? want[i].degraded : want[i].exact)
        << how << " row " << i << " (" << got[i].comp_a << "-" << got[i].comp_b
        << " = " << got[i].pemd.raw() << " mm)";
  }
}

// Runs the body at 1 and at 4 lanes, restoring the pool size afterwards.
template <typename Body>
void at_lanes(const Body& body) {
  const std::size_t lanes0 = core::ThreadPool::global_thread_count();
  for (const std::size_t lanes : {1u, 4u}) {
    core::ThreadPool::set_global_thread_count(lanes);
    body(lanes);
  }
  core::ThreadPool::set_global_thread_count(lanes0);
}

TEST(RulePins, FlowDerivesThePinnedRules) {
  at_lanes([](std::size_t lanes) {
    for (const bool boost : {false, true}) {
      BuckConverter bc = make(boost);
      const place::Layout initial =
          boost ? boost_layout_unfavorable(bc) : layout_unfavorable(bc);
      FlowOptions opt;
      opt.sweep.n_points = 60;
      const FlowResult r = run_design_flow(bc, initial, opt);
      ASSERT_TRUE(r.complete);
      expect_pinned(r.rules, boost, false,
                    std::string(boost ? "boost" : "buck") + " flow, lanes " +
                        std::to_string(lanes));
    }
  });
}

TEST(RulePins, LockstepAndPerPairSearchesDeriveThePinnedRules) {
  at_lanes([](std::size_t lanes) {
    for (const bool boost : {false, true}) {
      for (const bool degraded : {false, true}) {
        const BuckConverter bc = make(boost);
        const std::vector<peec::ModelPair> pairs = pinned_pairs(bc, boost);
        const RuleConfig cfg = config(degraded);
        const std::string how = std::string(boost ? "boost" : "buck") +
                                (degraded ? " degraded" : " exact") + ", lanes " +
                                std::to_string(lanes);

        const peec::CouplingExtractor batched_ex(cfg.quadrature);
        expect_pinned(emc::RuleDeriver(batched_ex, cfg.rules).derive(pairs), boost,
                      degraded, how + ", lockstep");

        const peec::CouplingExtractor single_ex(cfg.quadrature);
        const emc::RuleDeriver single(single_ex, cfg.rules);
        std::vector<emc::MinDistanceRule> per_pair;
        for (const auto& [a, b] : pairs) per_pair.push_back(single.derive(*a, *b));
        expect_pinned(per_pair, boost, degraded, how + ", per pair");
      }
    }
  });
}

// A stop that lands while a level's rows are running: the stopped search
// stores no torn value in the shared cache, so a rerun on that cache still
// derives the pinned rules, and the probes it cached match a cold
// extractor's bit for bit.
TEST(RulePins, StopMidLevelLeavesTheSharedCacheClean) {
  at_lanes([](std::size_t lanes) {
    const BuckConverter bc = make(false);
    const std::vector<peec::ModelPair> pairs = pinned_pairs(bc, false);
    const auto cache = std::make_shared<peec::ExtractionCache>();
    const peec::CouplingExtractor shared({}, {}, cache);

    // Raise the token once the first level has run part of its rows: the
    // level's 60x60 pair alone holds 3,600 segment pairs.
    core::CancelToken token;
    const std::uint64_t start = peec::kernel_stats().exact_pairs;
    std::atomic<bool> done{false};
    std::thread watcher([&] {
      while (!done.load()) {
        if (peec::kernel_stats().exact_pairs - start >= 1500) {
          token.request_cancel();
          return;
        }
        std::this_thread::yield();
      }
    });
    bool stopped = false;
    {
      core::CancelScope scope(core::Deadline::unlimited(), &token);
      (void)emc::RuleDeriver(shared).derive(pairs);
      stopped = scope.should_stop();
    }
    done.store(true);
    watcher.join();
    ASSERT_TRUE(stopped) << "lanes " << lanes;

    expect_pinned(emc::RuleDeriver(shared).derive(pairs), false, false,
                  "rerun on the stopped search's cache, lanes " + std::to_string(lanes));
    const peec::CouplingExtractor cold;
    for (const auto& [a, b] : pairs) {
      for (const double d : {2.0, 200.0, 101.0}) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(shared.coupling_at(*a, *b, units::Millimeters{d})),
                  std::bit_cast<std::uint64_t>(cold.coupling_at(*a, *b, units::Millimeters{d})))
            << a->name << "-" << b->name << " at " << d << " mm";
      }
    }
  });
}

}  // namespace
}  // namespace emi::flow
