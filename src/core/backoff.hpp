// Deterministic exponential backoff with counter-based jitter.
//
// Retry delays anywhere in this repo must be reproducible: the det_lint
// forbids ambient randomness, and the determinism contract demands that two
// runs of the same client script issue byte-identical request sequences. So
// Backoff never touches a clock or an RNG stream - the delay before retry
// attempt k is a pure function of (options, seed, k), with the jitter drawn
// from a splitmix64 hash of (seed, k). Identical seeds replay identical
// schedules; distinct seeds (e.g. per job id) de-synchronize retry storms
// the way random jitter would, without the nondeterminism.
//
// The delay only schedules *when* work re-runs, never what it computes, so
// by the flow determinism contract backoff can never change result bits.
//
// Used by `emiplace submit --retry` against kResourceExhausted sheds.
#pragma once

#include <cstdint>

namespace emi::core {

struct BackoffOptions {
  std::int64_t base_ms = 100;  // delay before the first retry (attempt 0)
  std::int64_t max_ms = 10000; // exponential growth is clamped here
  double multiplier = 2.0;     // delay ratio between consecutive attempts
  // Fraction of each delay that jitter may remove: the delay for attempt k
  // lands in [(1 - jitter) * d_k, d_k]. 0 = fully regular schedule.
  double jitter = 0.5;
};

class Backoff {
 public:
  Backoff(BackoffOptions opt, std::uint64_t seed) : opt_(opt), seed_(seed) {}

  // Delay in ms before retry `attempt` (0-based). Pure function of
  // (options, seed, attempt); never negative.
  std::int64_t delay_ms(int attempt) const {
    if (opt_.base_ms <= 0) return 0;
    const double cap = static_cast<double>(opt_.max_ms > 0 ? opt_.max_ms : opt_.base_ms);
    double d = static_cast<double>(opt_.base_ms);
    for (int i = 0; i < attempt && d < cap; ++i) d *= opt_.multiplier;
    if (d > cap) d = cap;
    double j = opt_.jitter;
    if (j < 0.0) j = 0.0;
    if (j > 1.0) j = 1.0;
    // Counter-based jitter: unit scale from a hash of (seed, attempt), so
    // the schedule replays exactly and two seeds decorrelate.
    const double u = static_cast<double>(
                         splitmix64(seed_ ^ (0x9e3779b97f4a7c15ull *
                                             (static_cast<std::uint64_t>(attempt) + 1))) >>
                         11) /
                     9007199254740992.0;  // 2^53
    const std::int64_t out = static_cast<std::int64_t>(d * (1.0 - j * u));
    return out > 0 ? out : 0;
  }

  const BackoffOptions& options() const { return opt_; }
  std::uint64_t seed() const { return seed_; }

 private:
  static std::uint64_t splitmix64(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  BackoffOptions opt_;
  std::uint64_t seed_;
};

}  // namespace emi::core
