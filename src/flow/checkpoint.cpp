#include "src/flow/checkpoint.hpp"

#include <algorithm>
#include <climits>
#include <sstream>
#include <vector>

#include "src/core/fault_injection.hpp"
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

void put_spectrum(std::ostream& out, const char* tag,
                  const emc::EmissionSpectrum& s) {
  out << "spectrum " << tag << ' ' << s.freqs_hz.size() << '\n';
  for (std::size_t i = 0; i < s.freqs_hz.size(); ++i) {
    out << "pt " << double_bits(s.freqs_hz[i]) << ' ' << double_bits(s.level_dbuv[i])
        << '\n';
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
  ss << "quad " << opt.quadrature.order << ' ' << opt.quadrature.subdivisions << '\n';
  // Kernel gates and the batched-extraction knobs change extracted values /
  // pair selection / placement costs, so they are part of the context: a
  // checkpoint written under different gates must not be resumed.
  ss << "kern " << (opt.kernel.analytic_parallel ? 1 : 0) << ' '
     << (opt.kernel.far_field ? 1 : 0) << ' ' << double_bits(opt.kernel.far_field_ratio)
     << ' ' << (opt.geometric_prescreen ? 1 : 0) << ' '
     << (opt.coupling_aware_placement ? 1 : 0) << ' ' << double_bits(opt.w_coupling)
     << '\n';
  // Clustered extraction changes computed mutuals, so its configuration
  // joins the context - but only when enabled, keeping every pre-cluster
  // checkpoint digest (and the default-options digest) byte-identical.
  if (opt.kernel.cluster) {
    ss << "clus " << double_bits(opt.kernel.cluster_theta) << ' '
       << opt.kernel.cluster_leaf_segments << '\n';
  }
  ss << "sweep " << double_bits(opt.sweep.f_min_hz) << ' ' << double_bits(opt.sweep.f_max_hz)
     << ' ' << opt.sweep.n_points << '\n';
  // Sweep acceleration changes computed spectra (interpolated / surrogate-
  // filled points), so its configuration joins the context - but only when
  // an engine is enabled, keeping every pre-acceleration checkpoint digest
  // (and the default-options digest) byte-identical.
  if (opt.sweep_accel.enabled()) {
    ss << "swp " << (opt.sweep_accel.adaptive ? 1 : 0) << ' '
       << double_bits(opt.sweep_accel.tol_db) << ' ' << opt.sweep_accel.coarse_points << ' '
       << (opt.sweep_accel.surrogate ? 1 : 0) << ' ' << double_bits(opt.sweep_accel.gate_db)
       << ' ' << opt.sweep_accel.max_order << ' ' << opt.sweep_accel.holdout_points
       << '\n';
  }
  ss << "thr " << double_bits(opt.sensitivity_threshold_db) << ' ' << double_bits(opt.k_threshold)
     << ' ' << double_bits(opt.k_min) << ' ' << opt.cispr_class << ' ' << opt.stage_attempts
     << '\n';
  const place::PlacerOptions& pl = opt.placement.placer;
  ss << "placer " << double_bits(pl.w_netlength) << ' ' << double_bits(pl.w_group) << ' '
     << double_bits(pl.w_pack) << ' ' << double_bits(pl.grid_step_mm) << ' '
     << double_bits(pl.refine_factor) << ' ' << pl.max_refines << ' '
     << (pl.try_all_rotations ? 1 : 0) << ' '
     << (opt.placement.run_partitioning ? 1 : 0) << '\n';
  return core::fault::fnv64(ss.str());
}

namespace {

// The result sections of the checkpoint ("complete" through "diags"), shared
// by serialize_checkpoint and result_fingerprint so the fingerprint is taken
// over exactly the bytes a checkpoint would persist.
void put_result_body(std::ostream& out, const FlowResult& r) {
  out << "complete " << (r.complete ? 1 : 0) << '\n';
  out << "saved " << r.field_solves_saved << '\n';

  out << "ranking " << r.ranking.size() << '\n';
  for (const emc::CouplingSensitivity& s : r.ranking) {
    out << "rank " << s.inductor_a << ' ' << s.inductor_b << ' '
        << double_bits(s.max_delta_db) << ' ' << double_bits(s.mean_delta_db) << '\n';
  }
  out << "pairs " << r.simulated_pairs.size() << '\n';
  for (const auto& [a, b] : r.simulated_pairs) out << "pair " << a << ' ' << b << '\n';

  put_spectrum(out, "initial", r.initial_prediction);
  put_spectrum(out, "initial_nc", r.initial_no_coupling);
  put_spectrum(out, "improved", r.improved_prediction);

  out << "rules " << r.rules.size() << '\n';
  for (const emc::MinDistanceRule& rule : r.rules) {
    out << "rule " << rule.comp_a << ' ' << rule.comp_b << ' ' << double_bits(rule.pemd.raw())
        << ' ' << double_bits(rule.k_threshold) << '\n';
  }

  out << "layout " << r.improved_layout.placements.size() << '\n';
  for (const place::Placement& p : r.improved_layout.placements) {
    out << "pl " << double_bits(p.position.x) << ' ' << double_bits(p.position.y) << ' '
        << double_bits(p.rot_deg) << ' ' << p.board << ' ' << (p.placed ? 1 : 0) << '\n';
  }
  const place::PlaceStats& st = r.place_stats;
  out << "stats " << st.placed << ' ' << st.failed << ' ' << st.candidates_evaluated
      << ' ' << double_bits(st.rotation_emd_before_mm) << ' '
      << double_bits(st.rotation_emd_after_mm) << ' ' << st.cut_nets << '\n';
  out << "sfails " << st.failed_components.size() << '\n';
  for (const std::string& name : st.failed_components) out << "sfail " << name << '\n';

  out << "diags " << r.diagnostics.size() << '\n';
  for (const StageDiagnostic& d : r.diagnostics) {
    out << "diag " << d.attempts << ' ' << (d.recovered ? 1 : 0) << ' '
        << static_cast<unsigned>(d.status.code()) << ' ' << d.stage << ' '
        << (d.status.stage().empty() ? "-" : d.status.stage()) << ' '
        << io::one_line(d.status.message()) << '\n';
  }
}

}  // namespace

std::string serialize_checkpoint(const FlowCheckpoint& ck) {
  std::ostringstream out;
  out << kCheckpointMagic << ' ' << io::hex64(ck.context_digest) << '\n';
  out << "stages " << std::hex << ck.stages_done << ' ' << ck.stages_ok << std::dec
      << '\n';
  put_result_body(out, ck.result);
  return io::seal(std::move(out).str());
}

std::uint64_t result_fingerprint(const FlowResult& r) {
  std::ostringstream out;
  put_result_body(out, r);
  return core::fault::fnv64(out.str());
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
  if (core::fault::should_fire(core::FaultSite::kCkpt, core::fault::fnv64(content))) {
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
