// The exact sensitivity ranking runs every probe through
// ckt::ac_coupling_probe_sweep, which factors each frequency point once and
// resumes that factorization for the probes. These tests hold it to the
// ranking built from one full emission sweep per probed circuit copy: the
// same bits for buck, boost and a pi filter at any lane count, and the same
// raised Status when a baseline or probe point fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/deadline.hpp"
#include "src/core/fault_injection.hpp"
#include "src/core/thread_pool.hpp"
#include "src/emi/lisn.hpp"
#include "src/emi/sensitivity.hpp"
#include "src/flow/buck_converter.hpp"
#include "src/flow/scenario_large.hpp"
#include "src/numeric/stats.hpp"

namespace emi::emc {
namespace {

constexpr std::size_t kLanes[] = {1, 2, 4};

struct Restore {
  ~Restore() {
    core::FaultInjector::instance().disarm();
    core::ThreadPool::set_global_thread_count(core::ThreadPool::default_thread_count());
  }
};

// The pi filter of emc_sensitivity_rules_test: coupling between the two
// capacitor ESLs bypasses the filter.
ckt::Circuit pi_filter() {
  ckt::Circuit c;
  c.add_vsource("VB", "batt", "0", ckt::Waveform::dc(12.0));
  attach_lisn(c, "batt", "vin");
  c.add_inductor("L_C1", "vin", "c1a", 15e-9);
  c.add_resistor("R_C1", "c1a", "c1b", 0.03);
  c.add_capacitor("C_1", "c1b", "0", 1.5e-6);
  c.add_inductor("L_FLT", "vin", "nn", 47e-6);
  c.add_capacitor("C_PAR", "vin", "nn", 15e-12);
  c.add_resistor("R_DMP", "vin", "nn", 15e3);
  c.add_inductor("L_C2", "nn", "c2a", 15e-9);
  c.add_resistor("R_C2", "c2a", "c2b", 0.03);
  c.add_capacitor("C_2", "c2b", "0", 1.5e-6);
  c.add_vsource("VN", "nz", "0", ckt::Waveform::dc(0.0), 1.0);
  c.add_inductor("L_SRC", "nz", "nn", 20e-9);
  return c;
}

TrapezoidSpectrum pi_noise() {
  const double period = 1.0 / 300e3;
  return spectrum_params(ckt::Waveform::trapezoid(0.0, 12.0, period, 30e-9,
                                                  0.42 * period - 30e-9, 30e-9));
}

struct Case {
  std::string name;
  ckt::Circuit circuit;
  std::string meas_node;
  TrapezoidSpectrum noise;
  SensitivityOptions opt;
};

// The flow's candidates (sorted), listed here in reverse so the probes'
// branch columns do not ascend with the pair index.
Case converter_case(bool boost) {
  flow::BuckConverter bc = boost ? flow::make_boost_converter() : flow::make_buck_converter();
  Case k{boost ? "boost" : "buck", bc.circuit, bc.meas_node, bc.noise, {}};
  for (const auto& [l, mi] : bc.inductor_model) k.opt.candidates.push_back(l);
  std::sort(k.opt.candidates.rbegin(), k.opt.candidates.rend());
  k.opt.sweep.n_points = 60;
  return k;
}

// The pi filter with a coupling the probe of (L_C2, L_C1) replaces.
Case pi_case() {
  Case k{"pi", pi_filter(), "LISN_meas", pi_noise(), {}};
  k.circuit.add_coupling("K0", "L_C1", "L_C2", 0.02);
  k.opt.candidates = {"L_SRC", "L_C2", "L_FLT", "L_C1"};
  k.opt.sweep.n_points = 40;
  return k;
}

// The ranking as one full emission sweep per probed circuit copy computes
// it: the baseline first, then each pair in index order, the first failed
// sweep raising its Status.
std::vector<CouplingSensitivity> reference_ranking(const Case& k) {
  std::vector<std::string> names = k.opt.candidates;
  if (names.empty()) {
    for (const auto& l : k.circuit.inductors()) names.push_back(l.name);
  }
  const std::vector<double> freqs =
      num::log_space(k.opt.sweep.f_min_hz, k.opt.sweep.f_max_hz, k.opt.sweep.n_points);
  const std::vector<double> env = envelope_series(k.noise, freqs);
  const std::vector<double> base =
      conducted_emission_scaled(k.circuit, k.meas_node, freqs, env, k.opt.sweep.ac)
          .level_dbuv;
  std::vector<CouplingSensitivity> out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      ckt::Circuit probe = k.circuit;
      probe.set_coupling(names[i], names[j], k.opt.probe_k);
      const std::vector<double> lv =
          conducted_emission_scaled(probe, k.meas_node, freqs, env, k.opt.sweep.ac)
              .level_dbuv;
      double max_d = 0.0, sum_d = 0.0;
      for (std::size_t fi = 0; fi < lv.size(); ++fi) {
        const double v = lv[fi] - base[fi];
        max_d = std::max(max_d, std::fabs(v));
        sum_d += std::fabs(v);
      }
      out.push_back({names[i], names[j], max_d, sum_d / static_cast<double>(lv.size())});
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.max_delta_db > b.max_delta_db;
  });
  return out;
}

void expect_same_ranking(const std::vector<CouplingSensitivity>& got,
                         const std::vector<CouplingSensitivity>& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].inductor_a, want[i].inductor_a) << what << " #" << i;
    EXPECT_EQ(got[i].inductor_b, want[i].inductor_b) << what << " #" << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].max_delta_db),
              std::bit_cast<std::uint64_t>(want[i].max_delta_db))
        << what << " #" << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].mean_delta_db),
              std::bit_cast<std::uint64_t>(want[i].mean_delta_db))
        << what << " #" << i;
  }
}

// The Status `fn` raises as a StatusError; OK when it returns.
core::Status raised(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const core::StatusError& e) {
    return e.status();
  }
  return {};
}

void expect_same_failure(const Case& k, const std::string& what) {
  const core::Status want = raised([&] { (void)reference_ranking(k); });
  const core::Status got = raised([&] {
    (void)rank_coupling_sensitivity_report(k.circuit, k.meas_node, k.noise, k.opt);
  });
  ASSERT_FALSE(want.ok()) << what;
  EXPECT_EQ(got, want) << what << ": got " << got.to_string() << ", want "
                       << want.to_string();
}

TEST(ProbeSweep, RankingMatchesPerProbeSweepsBitForBitAtAnyLaneCount) {
  Restore restore;
  std::vector<Case> cases;
  cases.push_back(converter_case(false));
  cases.push_back(converter_case(true));
  cases.push_back(pi_case());
  for (const Case& k : cases) {
    core::ThreadPool::set_global_thread_count(1);
    const std::vector<CouplingSensitivity> want = reference_ranking(k);
    const std::size_t pairs = want.size();
    for (const std::size_t lanes : kLanes) {
      core::ThreadPool::set_global_thread_count(lanes);
      const SensitivityReport rep =
          rank_coupling_sensitivity_report(k.circuit, k.meas_node, k.noise, k.opt);
      expect_same_ranking(rep.ranking, want, k.name + " at " + std::to_string(lanes));
      // Every probe point is solved, and every one resumes the baseline.
      EXPECT_EQ(rep.stats.full_solves, (1 + pairs) * k.opt.sweep.n_points);
      EXPECT_EQ(rep.stats.resumed_solves, pairs * k.opt.sweep.n_points);
    }
    core::FaultInjector::instance().configure(core::FaultSite::kPool, 1.0, 3);
    expect_same_ranking(
        rank_coupling_sensitivity(k.circuit, k.meas_node, k.noise, k.opt), want,
        k.name + " under pool:1.0:3");
    core::FaultInjector::instance().disarm();
  }
}

// The smallest pivot magnitude of the circuit's factorization at `f`, as a
// bracket [lo, hi): the point solves exactly when pivot_threshold <= it.
std::pair<double, double> min_pivot(const ckt::Circuit& c, double f) {
  double lo = 1e-300;
  double hi = 1e300;
  for (int i = 0; i < 64; ++i) {
    const double mid = std::sqrt(lo) * std::sqrt(hi);
    ckt::AcOptions ac;
    ac.pivot_threshold = mid;
    (ckt::ac_solve_checked(c, {f}, ac).ok() ? lo : hi) = mid;
  }
  return {lo, hi};
}

TEST(ProbeSweep, ProbeFailureRaisesTheStatusOfThePerProbeSweep) {
  Restore restore;
  Case k = pi_case();
  k.opt.sweep.n_points = 12;
  const std::vector<double> freqs =
      num::log_space(k.opt.sweep.f_min_hz, k.opt.sweep.f_max_hz, k.opt.sweep.n_points);
  double base_lo = 1e300;
  for (const double f : freqs) base_lo = std::min(base_lo, min_pivot(k.circuit, f).first);
  // A threshold the baseline passes at every point and some probe fails at.
  double threshold = 0.0;
  const auto& names = k.opt.candidates;
  for (std::size_t i = 0; i < names.size() && threshold == 0.0; ++i) {
    for (std::size_t j = i + 1; j < names.size() && threshold == 0.0; ++j) {
      ckt::Circuit probe = k.circuit;
      probe.set_coupling(names[i], names[j], k.opt.probe_k);
      for (const double f : freqs) {
        const double probe_hi = min_pivot(probe, f).second;
        if (probe_hi <= base_lo) {
          threshold = probe_hi;
          break;
        }
      }
    }
  }
  ASSERT_GT(threshold, 0.0) << "no probe pivots below the baseline's";
  k.opt.sweep.ac.pivot_threshold = threshold;
  const std::vector<double> env = envelope_series(k.noise, freqs);
  ckt::AcOptions ac = k.opt.sweep.ac;
  ac.source_scale = env;
  ASSERT_TRUE(ckt::ac_solve_checked(k.circuit, freqs, ac).ok());
  for (const std::size_t lanes : {kLanes[0], kLanes[2]}) {
    core::ThreadPool::set_global_thread_count(lanes);
    expect_same_failure(k, "probe pivot at " + std::to_string(lanes));
  }
}

TEST(ProbeSweep, InjectedLuFaultsRaiseTheStatusOfThePerProbeSweeps) {
  Restore restore;
  core::FaultInjector::instance().configure(core::FaultSite::kLu, 0.5, 42);
  for (const Case& k : {converter_case(false), pi_case()}) {
    for (const std::size_t lanes : {kLanes[0], kLanes[2]}) {
      core::ThreadPool::set_global_thread_count(lanes);
      expect_same_failure(k, k.name + " lu:0.5:42 at " + std::to_string(lanes));
    }
  }
}

TEST(ProbeSweep, StoppedScopeRaisesTheStatusOfThePerProbeSweeps) {
  Restore restore;
  const Case k = converter_case(false);
  core::CancelToken token;
  token.request_cancel();
  for (const std::size_t lanes : {kLanes[0], kLanes[2]}) {
    core::ThreadPool::set_global_thread_count(lanes);
    {
      core::CancelScope scope(core::Deadline::expired(), nullptr);
      expect_same_failure(k, "expired deadline at " + std::to_string(lanes));
    }
    {
      core::CancelScope scope(core::Deadline::unlimited(), &token);
      expect_same_failure(k, "cancelled at " + std::to_string(lanes));
    }
  }
}

TEST(ProbeSweep, RejectsUnknownCandidatesAndCouplingsOfOneOrMore) {
  Case k = pi_case();
  k.opt.sweep.n_points = 8;
  k.opt.candidates = {"L_C1", "L_NONE"};
  EXPECT_THROW(rank_coupling_sensitivity(k.circuit, k.meas_node, k.noise, k.opt),
               std::invalid_argument);
  k.opt.candidates = {"L_SRC", "L_FLT"};
  k.opt.probe_k = 1.0;
  EXPECT_THROW(rank_coupling_sensitivity(k.circuit, k.meas_node, k.noise, k.opt),
               std::invalid_argument);
}

bool same_bits(const ckt::Complex& a, const ckt::Complex& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Each probe's phasors against ac_solve_checked on the probe's own circuit.
void expect_probe_phasors(const ckt::Circuit& c, const std::string& meas,
                          const std::vector<std::pair<std::size_t, std::size_t>>& pairs,
                          const std::vector<double>& freqs,
                          const ckt::CouplingProbeSweep& sw) {
  ASSERT_EQ(sw.probes.size(), pairs.size());
  ASSERT_TRUE(sw.baseline.failures.empty());
  const ckt::AcSolution base = ckt::ac_solve_checked(c, freqs).value();
  for (std::size_t fi = 0; fi < freqs.size(); ++fi) {
    EXPECT_TRUE(same_bits(sw.baseline.v_meas[fi], base.voltage(meas, fi))) << fi;
  }
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    ckt::Circuit probe = c;
    probe.set_coupling(c.inductors()[pairs[p].first].name,
                       c.inductors()[pairs[p].second].name, 0.05);
    const ckt::AcSolution ref = ckt::ac_solve_checked(probe, freqs).value();
    ASSERT_TRUE(sw.probes[p].failures.empty());
    for (std::size_t fi = 0; fi < freqs.size(); ++fi) {
      EXPECT_TRUE(same_bits(sw.probes[p].v_meas[fi], ref.voltage(meas, fi)))
          << "probe " << p << " point " << fi;
    }
  }
}

TEST(ProbeSweep, DenseProbesResumeAndBandedOnesFactorInFull) {
  const std::vector<double> freqs = num::log_space(150e3, 108e6, 9);
  {
    // The buck stays dense: every probe resumes.
    const flow::BuckConverter bc = flow::make_buck_converter();
    const std::vector<std::pair<std::size_t, std::size_t>> pairs = {{3, 1}, {0, 5}, {4, 6}};
    ASSERT_EQ(ckt::ac_band_ordering(bc.circuit), nullptr);
    const ckt::CouplingProbeSweep sw =
        ckt::ac_coupling_probe_sweep(bc.circuit, bc.meas_node, pairs, 0.05, freqs);
    EXPECT_EQ(sw.resumed_points, 3 * freqs.size());
    expect_probe_phasors(bc.circuit, bc.meas_node, pairs, freqs, sw);
  }
  {
    // The 16-stage ladder takes the band solver: no probe resumes.
    const flow::LargeScenarioCircuit sc = flow::make_large_scenario_circuit();
    ASSERT_NE(ckt::ac_band_ordering(sc.circuit), nullptr);
    const std::vector<std::pair<std::size_t, std::size_t>> pairs = {{0, 1}, {7, 2}};
    const ckt::CouplingProbeSweep sw =
        ckt::ac_coupling_probe_sweep(sc.circuit, sc.meas_node, pairs, 0.05, freqs);
    EXPECT_EQ(sw.resumed_points, 0u);
    expect_probe_phasors(sc.circuit, sc.meas_node, pairs, freqs, sw);
  }
}

// A probe set_coupling rejects is rejected up front: an inductor coupled to
// itself (a probed self pair, or a candidate name listed twice) and a probe
// k of 1 or more on a pair the circuit already couples.
TEST(ProbeSweep, InvalidProbesThrow) {
  const std::vector<double> freqs = num::log_space(150e3, 108e6, 9);
  const flow::BuckConverter bc = flow::make_buck_converter();
  const std::vector<std::pair<std::size_t, std::size_t>> self_pair = {{3, 1}, {2, 2}};
  EXPECT_THROW(
      ckt::ac_coupling_probe_sweep(bc.circuit, bc.meas_node, self_pair, 0.05, freqs),
      std::invalid_argument);

  const std::string l0 = bc.circuit.inductors()[0].name;
  const std::string l1 = bc.circuit.inductors()[1].name;
  SensitivityOptions opt;
  opt.sweep.n_points = 9;
  opt.candidates = {l0, l1, l0};
  EXPECT_THROW(rank_coupling_sensitivity(bc.circuit, bc.meas_node, bc.noise, opt),
               std::invalid_argument);

  ckt::Circuit coupled = bc.circuit;
  coupled.set_coupling(l0, l1, 0.2);
  opt.candidates = {l0, l1};
  for (const double k : {1.0, 1.5}) {
    opt.probe_k = k;
    EXPECT_THROW(rank_coupling_sensitivity(coupled, bc.meas_node, bc.noise, opt),
                 std::invalid_argument)
        << "probe_k " << k;
  }
}

}  // namespace
}  // namespace emi::emc
