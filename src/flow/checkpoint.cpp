#include "src/flow/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <climits>
#include <concepts>
#include <sstream>
#include <vector>

#include "src/core/fault_injection.hpp"
#include "src/flow/flow_units.hpp"
#include "src/flow/stage_driver.hpp"
#include "src/io/atomic_writer.hpp"
#include "src/io/line_record.hpp"

namespace emi::flow {

namespace {

// Allocation guard for count fields in corrupt-but-plausible files; real
// checkpoints are far below this.
constexpr std::uint64_t kMaxCount = 1u << 20;

const char* const kStageNames[kFlowStageCount] = {
    "sensitivity", "initial_prediction", "rule_derivation", "placement",
    "verification"};

constexpr std::string_view kStage = "flow.checkpoint";

using io::double_bits;

// ---- rendering -------------------------------------------------------------
//
// A checkpoint is appended into one string: integers in decimal
// through std::to_chars, hex64 fields through io::append_hex64 - the bytes
// an ostream, io::hex64 and io::double_bits print, without a string or a
// stream per number.

struct Hex64 {  // 16 lowercase hex digits, like io::hex64
  std::uint64_t v;
};
struct Hex {  // lowercase hex digits, no padding, like std::hex
  std::uint64_t v;
};
Hex64 bits(double v) { return {std::bit_cast<std::uint64_t>(v)}; }

void put(std::string& out, std::string_view s) { out.append(s); }

template <std::integral T>
void put(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void put(std::string& out, Hex h) {
  char buf[16];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, h.v, 16).ptr);
}

void put(std::string& out, Hex64 h) { io::append_hex64(out, h.v); }

// One record line: the parts separated by single spaces, then '\n'.
template <typename First, typename... Rest>
void put_line(std::string& out, const First& first, const Rest&... rest) {
  put(out, first);
  ((out += ' ', put(out, rest)), ...);
  out += '\n';
}

void put_spectrum(std::string& out, const char* tag, const emc::EmissionSpectrum& s) {
  put_line(out, "spectrum", tag, s.freqs_hz.size());
  for (std::size_t i = 0; i < s.freqs_hz.size(); ++i) {
    put_line(out, "pt", bits(s.freqs_hz[i]), bits(s.level_dbuv[i]));
  }
}

// ---- parsing ---------------------------------------------------------------

core::Status parse_count(const io::LineCursor& r, const std::string& s,
                         std::uint64_t& out) {
  if (!io::parse_u64(s, out) || out > kMaxCount) {
    return r.error("count field out of range: " + s);
  }
  return core::Status();
}

core::Status parse_spectrum(io::LineCursor& r, const char* tag, emc::EmissionSpectrum& s) {
  std::vector<std::string> t;
  if (core::Status st = r.next("spectrum", 3, t); !st.ok()) return st;
  if (t[1] != tag) {
    return r.error(std::string("expected spectrum '") + tag + "', got '" + t[1] + "'");
  }
  std::uint64_t n = 0;
  if (core::Status st = parse_count(r, t[2], n); !st.ok()) return st;
  s.freqs_hz.resize(n);
  s.level_dbuv.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (core::Status st = r.next("pt", 3, t); !st.ok()) return st;
    if (!io::parse_double_bits(t[1], s.freqs_hz[i]) ||
        !io::parse_double_bits(t[2], s.level_dbuv[i])) {
      return r.error("malformed spectrum point");
    }
  }
  return core::Status();
}

}  // namespace

const char* flow_stage_name(FlowStage s) {
  return kStageNames[static_cast<std::size_t>(s)];
}

std::optional<FlowStage> flow_stage_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kFlowStageCount; ++i) {
    if (name == kStageNames[i]) return static_cast<FlowStage>(i);
  }
  return std::nullopt;
}

std::uint64_t flow_context_digest(const BuckConverter& bc,
                                  const place::Layout& initial_layout,
                                  const FlowOptions& opt) {
  std::ostringstream ss;
  ss << "emickpt-context-v1\n";
  std::vector<std::string> candidates;
  for (const auto& [l, mi] : bc.inductor_model) candidates.push_back(l);
  std::sort(candidates.begin(), candidates.end());
  for (const std::string& c : candidates) ss << "cand " << c << '\n';
  for (const place::Placement& p : initial_layout.placements) {
    ss << "pl " << double_bits(p.position.x) << ' ' << double_bits(p.position.y) << ' '
       << double_bits(p.rot_deg) << ' ' << p.board << ' ' << (p.placed ? 1 : 0) << '\n';
  }
  // The quad, thr and placer lines print the flow's fixed design
  // parameters. They were options once and print the same bytes as their
  // old defaults, so every existing checkpoint digest still matches.
  const peec::QuadratureOptions quad{};
  ss << "quad " << quad.order << ' ' << quad.subdivisions << '\n';
  // This line once carried the kernel's analytic / far-field gates and the
  // prescreen / coupling-aware placement knobs. They are gone; it keeps
  // their default bytes so every existing checkpoint digest still matches.
  ss << "kern 0 0 4020000000000000 0 0 4049000000000000\n";
  ss << "sweep " << double_bits(opt.sweep.f_min_hz) << ' ' << double_bits(opt.sweep.f_max_hz)
     << ' ' << opt.sweep.n_points << '\n';
  // The AC solver knobs change computed spectra, so they join the context -
  // but only when one differs from its default, keeping the default digest
  // byte-identical. source_scale stays out: every flow sweep overwrites it
  // with the noise envelope.
  const ckt::AcOptions& ac = opt.sweep.ac;
  const ckt::AcOptions ac0{};
  if (ac.g_min != ac0.g_min || ac.condition_limit != ac0.condition_limit ||
      ac.pivot_threshold != ac0.pivot_threshold) {
    ss << "ac " << double_bits(ac.g_min) << ' ' << double_bits(ac.condition_limit) << ' '
       << double_bits(ac.pivot_threshold) << '\n';
  }
  // Adaptive sweeps change computed spectra (interpolated / model-filled
  // points), so the switch joins the context - but only when it is set,
  // keeping every pre-acceleration checkpoint digest (and the default-options
  // digest) byte-identical. The line prints the bytes the shipped
  // `--adaptive` configuration always printed: the level-0 tolerances and
  // grid size, a 1 where the coupling-model flag stood, and "8 4" where the
  // retired rational surrogate's order and holdout defaults stood.
  if (opt.sweep_accel.adaptive) {
    ss << "swp 1 " << double_bits(emi::sweep::tol_db(0)) << ' ' << emi::sweep::kCoarsePoints
       << " 1 " << double_bits(emi::sweep::gate_db(0)) << " 8 4\n";
  }
  // The 3 stands where the CISPR 25 class of the CLI's limit column was
  // printed; it never was a flow input.
  ss << "thr " << double_bits(FlowEngine::kPruneThresholdDb) << ' '
     << double_bits(emc::RuleDeriverOptions{}.k_threshold) << ' '
     << double_bits(kMinInstalledCoupling) << " 3 " << detail::kStageAttempts << '\n';
  const place::AutoPlaceOptions placement{};
  const place::PlacerOptions& pl = placement.placer;
  ss << "placer " << double_bits(pl.w_netlength) << ' ' << double_bits(pl.w_group) << ' '
     << double_bits(pl.w_pack) << ' ' << double_bits(pl.grid_step_mm) << ' '
     << double_bits(pl.refine_factor) << ' ' << pl.max_refines << ' '
     << (pl.try_all_rotations ? 1 : 0) << ' ' << (placement.run_partitioning ? 1 : 0)
     << '\n';
  return core::fault::fnv64(ss.str());
}

namespace {

// The result sections of the checkpoint ("complete" through "diags"), shared
// by serialize_checkpoint and result_fingerprint so the fingerprint is taken
// over exactly the bytes a checkpoint would persist.
void put_result_body(std::string& out, const FlowResult& r) {
  put_line(out, "complete", r.complete ? 1 : 0);
  put_line(out, "saved", r.field_solves_saved);

  put_line(out, "ranking", r.ranking.size());
  for (const emc::CouplingSensitivity& s : r.ranking) {
    put_line(out, "rank", s.inductor_a, s.inductor_b, bits(s.max_delta_db),
             bits(s.mean_delta_db));
  }
  put_line(out, "pairs", r.simulated_pairs.size());
  for (const auto& [a, b] : r.simulated_pairs) put_line(out, "pair", a, b);

  put_spectrum(out, "initial", r.initial_prediction);
  put_spectrum(out, "initial_nc", r.initial_no_coupling);
  put_spectrum(out, "improved", r.improved_prediction);

  put_line(out, "rules", r.rules.size());
  for (const emc::MinDistanceRule& rule : r.rules) {
    put_line(out, "rule", rule.comp_a, rule.comp_b, bits(rule.pemd.raw()),
             bits(rule.k_threshold));
  }

  put_line(out, "layout", r.improved_layout.placements.size());
  for (const place::Placement& p : r.improved_layout.placements) {
    put_line(out, "pl", bits(p.position.x), bits(p.position.y), bits(p.rot_deg), p.board,
             p.placed ? 1 : 0);
  }
  const place::PlaceStats& st = r.place_stats;
  put_line(out, "stats", st.placed, st.failed, st.candidates_evaluated,
           bits(st.rotation_emd_before_mm), bits(st.rotation_emd_after_mm), st.cut_nets);
  put_line(out, "sfails", st.failed_components.size());
  for (const std::string& name : st.failed_components) put_line(out, "sfail", name);

  put_line(out, "diags", r.diagnostics.size());
  for (const StageDiagnostic& d : r.diagnostics) {
    const std::string& stage = d.status.stage();
    put_line(out, "diag", d.attempts, d.recovered ? 1 : 0,
             static_cast<unsigned>(d.status.code()), d.stage,
             stage.empty() ? std::string_view("-") : std::string_view(stage),
             io::one_line(d.status.message()));
  }
}

}  // namespace

std::string serialize_checkpoint(const FlowCheckpoint& ck) {
  std::string out;
  put_line(out, kCheckpointMagic, Hex64{ck.context_digest});
  put_line(out, "stages", Hex{ck.stages_done}, Hex{ck.stages_ok});
  put_result_body(out, ck.result);
  return io::seal(std::move(out));
}

std::uint64_t result_fingerprint(const FlowResult& r) {
  std::string out;
  put_result_body(out, r);
  return core::fault::fnv64(out);
}

core::Result<FlowCheckpoint> parse_checkpoint(const std::string& text) {
  const core::Result<std::string_view> payload = io::open_sealed(text, kStage);
  if (!payload.ok()) return payload.status();

  io::LineCursor r(payload.value(), kStage);
  FlowCheckpoint ck;
  FlowResult& res = ck.result;
  std::vector<std::string> t;

  if (core::Status st = r.next("EMICKPT", 3, t); !st.ok()) return st;
  if (t[1] != "1") return r.error("unsupported version " + t[1]);
  if (!io::parse_hex64(t[2], ck.context_digest)) {
    return r.error("malformed context digest");
  }

  if (core::Status st = r.next("stages", 3, t); !st.ok()) return st;
  std::uint64_t done = 0, okbits = 0;
  if (!io::parse_u64(t[1], done, 16) || !io::parse_u64(t[2], okbits, 16) ||
      done >= (1u << kFlowStageCount) || (okbits & ~done) != 0) {
    return r.error("malformed stage bitmasks");
  }
  ck.stages_done = static_cast<std::uint32_t>(done);
  ck.stages_ok = static_cast<std::uint32_t>(okbits);

  if (core::Status st = r.next("complete", 2, t); !st.ok()) return st;
  if (t[1] != "0" && t[1] != "1") return r.error("malformed complete flag");
  res.complete = t[1] == "1";

  if (core::Status st = r.next("saved", 2, t); !st.ok()) return st;
  std::uint64_t n = 0;
  if (core::Status st = parse_count(r, t[1], n); !st.ok()) return st;
  res.field_solves_saved = n;

  if (core::Status st = r.next("ranking", 2, t); !st.ok()) return st;
  if (core::Status st = parse_count(r, t[1], n); !st.ok()) return st;
  res.ranking.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (core::Status st = r.next("rank", 5, t); !st.ok()) return st;
    emc::CouplingSensitivity& s = res.ranking[i];
    s.inductor_a = t[1];
    s.inductor_b = t[2];
    if (!io::parse_double_bits(t[3], s.max_delta_db) ||
        !io::parse_double_bits(t[4], s.mean_delta_db)) {
      return r.error("malformed ranking entry");
    }
  }

  if (core::Status st = r.next("pairs", 2, t); !st.ok()) return st;
  if (core::Status st = parse_count(r, t[1], n); !st.ok()) return st;
  res.simulated_pairs.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (core::Status st = r.next("pair", 3, t); !st.ok()) return st;
    res.simulated_pairs[i] = {t[1], t[2]};
  }

  if (core::Status st = parse_spectrum(r, "initial", res.initial_prediction); !st.ok())
    return st;
  if (core::Status st = parse_spectrum(r, "initial_nc", res.initial_no_coupling);
      !st.ok())
    return st;
  if (core::Status st = parse_spectrum(r, "improved", res.improved_prediction);
      !st.ok())
    return st;

  if (core::Status st = r.next("rules", 2, t); !st.ok()) return st;
  if (core::Status st = parse_count(r, t[1], n); !st.ok()) return st;
  res.rules.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (core::Status st = r.next("rule", 5, t); !st.ok()) return st;
    emc::MinDistanceRule& rule = res.rules[i];
    rule.comp_a = t[1];
    rule.comp_b = t[2];
    double pemd = 0.0;
    if (!io::parse_double_bits(t[3], pemd) ||
        !io::parse_double_bits(t[4], rule.k_threshold)) {
      return r.error("malformed rule entry");
    }
    rule.pemd = emc::Millimeters{pemd};
  }

  if (core::Status st = r.next("layout", 2, t); !st.ok()) return st;
  if (core::Status st = parse_count(r, t[1], n); !st.ok()) return st;
  res.improved_layout.placements.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (core::Status st = r.next("pl", 6, t); !st.ok()) return st;
    place::Placement& p = res.improved_layout.placements[i];
    // The board index is the one signed field: an optional '-' before the
    // digits.
    const bool negative = t[4][0] == '-';
    std::uint64_t board = 0;
    if (!io::parse_double_bits(t[1], p.position.x) ||
        !io::parse_double_bits(t[2], p.position.y) ||
        !io::parse_double_bits(t[3], p.rot_deg) ||
        !io::parse_u64(std::string_view(t[4]).substr(negative ? 1 : 0), board) ||
        board > INT_MAX || (t[5] != "0" && t[5] != "1")) {
      return r.error("malformed placement entry");
    }
    p.board = negative ? -static_cast<int>(board) : static_cast<int>(board);
    p.placed = t[5] == "1";
  }

  if (core::Status st = r.next("stats", 7, t); !st.ok()) return st;
  {
    place::PlaceStats& s = res.place_stats;
    std::uint64_t placed = 0, failed = 0, cands = 0, cut = 0;
    if (!io::parse_u64(t[1], placed) || !io::parse_u64(t[2], failed) ||
        !io::parse_u64(t[3], cands) ||
        !io::parse_double_bits(t[4], s.rotation_emd_before_mm) ||
        !io::parse_double_bits(t[5], s.rotation_emd_after_mm) ||
        !io::parse_u64(t[6], cut)) {
      return r.error("malformed stats record");
    }
    s.placed = placed;
    s.failed = failed;
    s.candidates_evaluated = cands;
    s.cut_nets = cut;
  }
  if (core::Status st = r.next("sfails", 2, t); !st.ok()) return st;
  if (core::Status st = parse_count(r, t[1], n); !st.ok()) return st;
  res.place_stats.failed_components.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (core::Status st = r.next("sfail", 2, t); !st.ok()) return st;
    res.place_stats.failed_components[i] = t[1];
  }

  if (core::Status st = r.next("diags", 2, t); !st.ok()) return st;
  if (core::Status st = parse_count(r, t[1], n); !st.ok()) return st;
  res.diagnostics.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    if (core::Status st = r.next("diag", 6, t); !st.ok()) return st;
    StageDiagnostic& d = res.diagnostics[i];
    std::uint64_t attempts = 0, code = 0;
    // The message is the free text after the first 6 tokens (may be empty,
    // may contain spaces).
    const std::optional<std::string_view> message = r.rest(6);
    if (!io::parse_u64(t[1], attempts) || attempts > INT_MAX ||
        (t[2] != "0" && t[2] != "1") || !io::parse_u64(t[3], code) ||
        code > static_cast<std::uint64_t>(core::ErrorCode::kCancelled) || !message) {
      return r.error("malformed diagnostic entry");
    }
    d.attempts = static_cast<int>(attempts);
    d.recovered = t[2] == "1";
    d.stage = t[4];
    d.status = core::Status(static_cast<core::ErrorCode>(code),
                            t[5] == "-" ? std::string() : t[5], std::string(*message));
  }

  if (core::Status st = r.expect_end("diagnostics"); !st.ok()) return st;
  return ck;
}

core::Status save_checkpoint_file(const std::string& path, const FlowCheckpoint& ck) {
  std::string content = serialize_checkpoint(ck);
  // Torn-write injection: truncate the payload mid-file before the (still
  // atomic) commit - the on-disk file then looks exactly like a crash inside
  // a non-atomic writer. The load-side checksum must reject it; the write
  // side reports success, as a genuinely crashed process would.
  // The content hash is the fault key: taken only while a site is armed.
  if (core::fault::armed() &&
      core::fault::should_fire(core::FaultSite::kCkpt, core::fault::fnv64(content))) {
    content.resize(content.size() / 2);
  }
  io::AtomicFileWriter w(path);
  return w.commit_content(content);
}

core::Result<FlowCheckpoint> load_checkpoint_file(const std::string& path) {
  const core::Result<std::string> text = io::read_file(path, kStage);
  if (!text.ok()) return text.status();
  return parse_checkpoint(text.value());
}

}  // namespace emi::flow
