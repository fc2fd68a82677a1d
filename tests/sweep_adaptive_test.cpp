// Adaptive frequency refinement: the 500-seed fuzz battery comparing the
// accelerated sweep against the dense reference grid. Solved points must be
// bit-identical to the dense sweep, every interpolated point must stay
// within tol_db(0) of it, a disabled accel must reproduce the dense sweep
// bitwise, and refinement must be invariant to the thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/ckt/ac.hpp"
#include "src/ckt/circuit.hpp"
#include "src/core/thread_pool.hpp"
#include "src/emi/noise_source.hpp"
#include "src/numeric/rng.hpp"
#include "src/numeric/stats.hpp"
#include "src/sweep/adaptive.hpp"

namespace emi::sweep {
namespace {

// A randomized 1..3 stage LC low-pass ladder: series coil (with winding
// resistance) per stage plus a shunt capacitor with ESL + ESR, driven by a
// unit AC noise source and measured across a 50 ohm load. The ESR floors
// bound the resonance Q, but notches and peaks still move freely with the
// seed - the workload the refinement has to chase.
ckt::Circuit random_filter(num::Rng& rng, std::string* meas) {
  ckt::Circuit c;
  c.add_vsource("VN", "in", "0", ckt::Waveform::dc(0.0), 1.0);
  c.add_resistor("RS", "in", "n0", rng.uniform(1.0, 10.0));
  std::string prev = "n0";
  const int stages = 1 + static_cast<int>(rng.uniform() * 2.999);
  for (int s = 0; s < stages; ++s) {
    const std::string tag = std::to_string(s);
    const std::string mid = "m" + tag;
    const std::string nxt = "n" + std::to_string(s + 1);
    c.add_inductor("L" + tag, prev, mid, rng.uniform(1e-6, 47e-6));
    c.add_resistor("RW" + tag, mid, nxt, rng.uniform(0.05, 1.0));
    c.add_capacitor("C" + tag, nxt, "c" + tag, rng.uniform(22e-9, 1e-6));
    c.add_inductor("LC" + tag, "c" + tag, "e" + tag, rng.uniform(5e-9, 60e-9));
    c.add_resistor("RC" + tag, "e" + tag, "0", rng.uniform(0.02, 0.5));
    prev = nxt;
  }
  c.add_resistor("RLOAD", prev, "0", 50.0);
  *meas = prev;
  return c;
}

std::vector<double> dense_reference(const ckt::Circuit& c, const std::string& meas,
                                    const std::vector<double>& freqs,
                                    const std::vector<double>& env) {
  ckt::AcOptions ac;
  ac.source_scale = env;
  const ckt::AcSolution sol = ckt::ac_solve_checked(c, freqs, ac).value();
  std::vector<double> level(freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    level[i] = num::volts_to_dbuv(std::abs(sol.voltage(meas, i)));
  }
  return level;
}

TEST(MonotoneCubic, ReproducesKnotsExactly) {
  const std::vector<double> x{0.0, 1.0, 2.5, 4.0};
  const std::vector<double> y{1.0, -2.0, 7.0, 7.0};
  const std::vector<double> out = monotone_cubic_interp(x, y, x);
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(out[i], y[i]) << i;
}

TEST(MonotoneCubic, MonotoneDataNeverOvershoots) {
  // Fritsch-Carlson's defining property: between two knots of monotone data
  // the cubic stays inside [y_i, y_{i+1}] - no Runge wiggle.
  const std::vector<double> x{0.0, 1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y{0.0, 0.1, 5.0, 5.1, 5.2};
  for (double q = 0.0; q <= 4.0; q += 0.01) {
    const double v = monotone_cubic_interp(x, y, {q})[0];
    EXPECT_GE(v, 0.0 - 1e-12);
    EXPECT_LE(v, 5.2 + 1e-12);
    const std::size_t i = std::min<std::size_t>(static_cast<std::size_t>(q), 3);
    EXPECT_GE(v, y[i] - 1e-12) << q;
    EXPECT_LE(v, y[i + 1] + 1e-12) << q;
  }
}

TEST(MonotoneCubic, ClampsOutsideTheKnotRange) {
  const std::vector<double> x{1.0, 2.0};
  const std::vector<double> y{3.0, 5.0};
  EXPECT_EQ(monotone_cubic_interp(x, y, {0.0})[0], 3.0);
  EXPECT_EQ(monotone_cubic_interp(x, y, {9.0})[0], 5.0);
}

TEST(MonotoneCubic, RejectsDegenerateKnots) {
  EXPECT_THROW(monotone_cubic_interp({1.0}, {2.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(monotone_cubic_interp({1.0, 1.0}, {2.0, 3.0}, {1.0}),
               std::invalid_argument);
  EXPECT_THROW(monotone_cubic_interp({1.0, 2.0}, {2.0}, {1.0}),
               std::invalid_argument);
}

TEST(AdaptiveSweep, DisabledAccelIsBitIdenticalToDense) {
  num::Rng rng(42);
  std::string meas;
  const ckt::Circuit c = random_filter(rng, &meas);
  const std::vector<double> freqs = num::log_space(150e3, 108e6, 80);
  const std::vector<double> env(80, 1.0);
  const std::vector<double> ref = dense_reference(c, meas, freqs, env);

  const AdaptiveSweepResult res =
      adaptive_ac_sweep(c, {meas}, freqs, env, {}, SweepAccel{});
  ASSERT_EQ(res.level_dbuv.size(), 1u);
  EXPECT_EQ(res.level_dbuv[0], ref);  // bitwise
  for (std::uint8_t s : res.solved) EXPECT_EQ(s, 1);
  EXPECT_EQ(res.stats.full_solves, 80u);
  EXPECT_EQ(res.stats.interp_points, 0u);
}

TEST(AdaptiveSweep, RejectsMismatchedInputs) {
  num::Rng rng(1);
  std::string meas;
  const ckt::Circuit c = random_filter(rng, &meas);
  EXPECT_THROW(adaptive_ac_sweep(c, {meas}, {1e6, 2e6}, {1.0}, {}, SweepAccel{}),
               std::invalid_argument);
  EXPECT_THROW(adaptive_ac_sweep(c, {}, {1e6, 2e6}, {1.0, 1.0}, {}, SweepAccel{}),
               std::invalid_argument);
}

// The tentpole acceptance fuzz: 500 random filters, adaptive vs dense.
TEST(AdaptiveSweep, FuzzSolvedBitwiseEqualAndInterpWithinTol) {
  const emc::TrapezoidSpectrum trapezoid{12.0, 1.0 / 300e3, 0.42 / 300e3, 30e-9};
  SweepAccel accel;
  accel.adaptive = true;  // level 0: tol_db(0), kCoarsePoints
  const double tol = tol_db(0);
  const std::vector<double> freqs = num::log_space(150e3, 108e6, 240);

  std::uint64_t total_full = 0;
  std::uint64_t total_interp = 0;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    num::Rng rng(seed);
    std::string meas;
    const ckt::Circuit c = random_filter(rng, &meas);
    // Alternate a flat and a trapezoid envelope: the admission rule works on
    // the envelope-normalized transfer, so both must behave identically.
    const std::vector<double> env = (seed % 2 == 0)
                                        ? std::vector<double>(freqs.size(), 1.0)
                                        : emc::envelope_series(trapezoid, freqs);
    const std::vector<double> ref = dense_reference(c, meas, freqs, env);
    const AdaptiveSweepResult res = adaptive_ac_sweep(c, {meas}, freqs, env, {}, accel);

    ASSERT_EQ(res.solved.size(), freqs.size());
    std::uint64_t solved = 0;
    for (std::size_t i = 0; i < freqs.size(); ++i) {
      if (res.solved[i]) {
        ++solved;
        EXPECT_EQ(res.level_dbuv[0][i], ref[i])  // bitwise: same MNA solve
            << "seed " << seed << " point " << i;
        EXPECT_EQ(res.error_bound_db[i], 0.0);
      } else {
        EXPECT_LE(std::abs(res.level_dbuv[0][i] - ref[i]), tol)
            << "seed " << seed << " point " << i;
        EXPECT_LE(res.error_bound_db[i], tol);
      }
    }
    EXPECT_EQ(res.stats.full_solves, solved) << "seed " << seed;
    EXPECT_EQ(res.stats.interp_points, freqs.size() - solved) << "seed " << seed;
    total_full += res.stats.full_solves;
    total_interp += res.stats.interp_points;
  }
  // Economics over the whole battery: the adaptive sweep must interpolate
  // the clear majority of dense points (>= 2x fewer solves than dense; the
  // flow-level acceptance asserts the 10x on the real workloads).
  EXPECT_LT(total_full, total_interp);
}

TEST(AdaptiveSweep, RefinementIsThreadCountInvariant) {
  num::Rng rng(2026);
  std::string meas;
  const ckt::Circuit c = random_filter(rng, &meas);
  const std::vector<double> freqs = num::log_space(150e3, 108e6, 160);
  const std::vector<double> env(freqs.size(), 1.0);
  SweepAccel accel;
  accel.adaptive = true;

  core::ThreadPool::set_global_thread_count(1);
  const AdaptiveSweepResult ref = adaptive_ac_sweep(c, {meas}, freqs, env, {}, accel);
  for (std::size_t lanes : {2u, 4u, 8u}) {
    core::ThreadPool::set_global_thread_count(lanes);
    const AdaptiveSweepResult res =
        adaptive_ac_sweep(c, {meas}, freqs, env, {}, accel);
    EXPECT_EQ(res.level_dbuv, ref.level_dbuv) << lanes << " lanes";
    EXPECT_EQ(res.solved, ref.solved) << lanes << " lanes";
    EXPECT_EQ(res.error_bound_db, ref.error_bound_db) << lanes << " lanes";
    EXPECT_EQ(res.stats.full_solves, ref.stats.full_solves) << lanes << " lanes";
  }
  core::ThreadPool::set_global_thread_count(core::ThreadPool::default_thread_count());
}

// The tolerances are constants on the deadline ladder: the shipped values
// at level 0 (the bytes the checkpoint digest records), doubled per level.
TEST(AdaptiveSweep, DegradedLadderCoarsensTolerances) {
  EXPECT_EQ(tol_db(0), 0.3);
  EXPECT_EQ(gate_db(0), 0.5);
  EXPECT_EQ(kCoarsePoints, 9u);
  EXPECT_EQ(tol_db(2), tol_db(0) * 4.0);
  EXPECT_EQ(gate_db(2), gate_db(0) * 4.0);
  EXPECT_EQ(tol_db(-1), tol_db(0));  // levels clamp at 0
  // Coarser admission can only solve fewer (or equal) points.
  num::Rng rng(7);
  std::string meas;
  const ckt::Circuit c = random_filter(rng, &meas);
  const std::vector<double> freqs = num::log_space(150e3, 108e6, 120);
  const std::vector<double> env(freqs.size(), 1.0);
  SweepAccel a;
  a.adaptive = true;
  const auto fine = adaptive_ac_sweep(c, {meas}, freqs, env, {}, a);
  const auto coarse = adaptive_ac_sweep(c, {meas}, freqs, env, {}, a, 3);
  EXPECT_LE(coarse.stats.full_solves, fine.stats.full_solves);
}

}  // namespace
}  // namespace emi::sweep
