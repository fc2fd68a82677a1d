#include "src/core/fault_injection.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string_view>
#include <system_error>
#include <vector>

namespace emi::core {

namespace {

constexpr std::uint64_t kAlways = ~0ull;

std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

bool parse_site(const std::string& name, FaultSite& out) {
  if (name == "pool") out = FaultSite::kPool;
  else if (name == "cache") out = FaultSite::kCache;
  else if (name == "lu") out = FaultSite::kLu;
  else if (name == "io") out = FaultSite::kIo;
  else if (name == "deadline") out = FaultSite::kDeadline;
  else if (name == "ckpt") out = FaultSite::kCkpt;
  else if (name == "wedge") out = FaultSite::kWedge;
  else return false;
  return true;
}

// The whole field through std::from_chars - the reader io::parse_u64 wraps
// (emi_core cannot link emi_io): no blank, '+' or base prefix, and for
// integers no sign at all.
template <typename T>
bool parse_field(std::string_view s, T& out) {
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, out);
  return ec == std::errc() && p == end;
}

}  // namespace

const char* fault_site_name(FaultSite s) {
  switch (s) {
    case FaultSite::kPool: return "pool";
    case FaultSite::kCache: return "cache";
    case FaultSite::kLu: return "lu";
    case FaultSite::kIo: return "io";
    case FaultSite::kDeadline: return "deadline";
    case FaultSite::kCkpt: return "ckpt";
    case FaultSite::kWedge: return "wedge";
  }
  return "unknown";
}

FaultInjector::FaultInjector() {
  if (const char* env = std::getenv("EMI_FAULT_INJECT")) {
    if (!configure_from_spec(env)) {
      std::fprintf(stderr,
                   "EMI_FAULT_INJECT: malformed spec '%s' ignored "
                   "(want <site>:<rate>:<seed>[,...], site in "
                   "pool|cache|lu|io|deadline|ckpt|wedge)\n",
                   env);
    }
  }
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector g_injector;
  return g_injector;
}

// Force the singleton (and so the env parse + armed flag) to initialize
// before main(), ahead of any should_fire() fast-path check.
namespace {
const bool g_force_init = (FaultInjector::instance(), true);
}

bool FaultInjector::configure_from_spec(const std::string& spec) {
  struct Parsed {
    FaultSite site;
    double rate;
    std::uint64_t seed;
  };
  std::vector<Parsed> parsed;
  std::istringstream ss(spec);
  std::string entry;
  bool trailing_comma = !spec.empty() && spec.back() == ',';
  while (std::getline(ss, entry, ',')) {
    // Empty entries (leading/doubled/trailing commas) are malformed, not
    // skipped: a typo must disarm the whole spec, never half of it.
    if (entry.empty()) return false;
    const auto c1 = entry.find(':');
    const auto c2 = entry.find(':', c1 == std::string::npos ? c1 : c1 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos) return false;
    Parsed p{};
    if (!parse_site(entry.substr(0, c1), p.site)) return false;
    const std::string_view e = entry;
    if (!parse_field(e.substr(c1 + 1, c2 - c1 - 1), p.rate) ||
        !parse_field(e.substr(c2 + 1), p.seed)) {
      return false;
    }
    if (!(p.rate >= 0.0) || !(p.rate <= 1.0)) return false;
    parsed.push_back(p);
  }
  if (parsed.empty() || trailing_comma) return false;
  // All-or-nothing replacement: a successful spec describes the complete
  // armed configuration, so sites from an earlier configure don't linger.
  disarm();
  for (const Parsed& p : parsed) configure(p.site, p.rate, p.seed);
  return true;
}

void FaultInjector::configure(FaultSite site, double rate, std::uint64_t seed) {
  SiteState& s = sites_[static_cast<std::size_t>(site)];
  std::uint64_t thr = 0;
  if (rate >= 1.0) {
    thr = kAlways;
  } else if (rate > 0.0) {
    thr = static_cast<std::uint64_t>(rate * 18446744073709551616.0 /* 2^64 */);
    if (thr == 0) thr = 1;
  }
  s.seed.store(seed, std::memory_order_relaxed);
  s.threshold.store(thr, std::memory_order_relaxed);
  s.fired.store(0, std::memory_order_relaxed);
  bool armed = false;
  for (const SiteState& st : sites_) {
    armed = armed || st.threshold.load(std::memory_order_relaxed) != 0;
  }
  fault::g_armed.store(armed, std::memory_order_relaxed);
}

void FaultInjector::disarm() {
  for (SiteState& s : sites_) {
    s.threshold.store(0, std::memory_order_relaxed);
    s.seed.store(0, std::memory_order_relaxed);
    s.fired.store(0, std::memory_order_relaxed);
  }
  fault::g_armed.store(false, std::memory_order_relaxed);
}

bool FaultInjector::fire(FaultSite site, std::uint64_t key) {
  SiteState& s = sites_[static_cast<std::size_t>(site)];
  const std::uint64_t thr = s.threshold.load(std::memory_order_relaxed);
  if (thr == 0) return false;
  const std::uint64_t seed = s.seed.load(std::memory_order_relaxed);
  const std::uint64_t salt = 0x51eed0f417ull * (static_cast<std::uint64_t>(site) + 1);
  const std::uint64_t h = splitmix64(key ^ splitmix64(seed ^ salt));
  if (thr != kAlways && h >= thr) return false;
  s.fired.fetch_add(1, std::memory_order_relaxed);
  return true;
}

double FaultInjector::rate(FaultSite site) const {
  const std::uint64_t thr =
      sites_[static_cast<std::size_t>(site)].threshold.load(std::memory_order_relaxed);
  if (thr == kAlways) return 1.0;
  return static_cast<double>(thr) / 18446744073709551616.0;
}

std::uint64_t FaultInjector::fired(FaultSite site) const {
  return sites_[static_cast<std::size_t>(site)].fired.load(std::memory_order_relaxed);
}

}  // namespace emi::core
