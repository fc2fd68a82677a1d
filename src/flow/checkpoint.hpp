// Crash-safe flow checkpoints: after every completed pipeline stage the flow
// can atomically rewrite a small versioned text file holding everything the
// remaining stages need, so a killed process resumes by *skipping* finished
// stages instead of redoing them - and, by the determinism contract, ends up
// with a bit-identical FlowResult.
//
// Format (line-oriented, '\n' separated):
//
//   EMICKPT 1 <context-digest-hex16>
//   stages <done-hex> <ok-hex>         bitmasks over FlowStage
//   complete <0|1>
//   ...sections (ranking, pairs, spectra, rules, layout, stats, diags)...
//   checksum <fnv64-hex16>
//
// Every double is serialized as the 16-hex-digit bit pattern of its IEEE-754
// representation, so a load restores the exact bits (no decimal round trip).
// The trailing checksum is FNV-1a over every byte preceding its own line;
// truncations and bit flips anywhere in the file fail validation and come
// back as a line-numbered kParseError Status - a corrupt checkpoint is
// rejected, never half-loaded. The header digest ties the checkpoint to the
// flow inputs (candidates, initial layout, sweep options, fixed design
// parameters): resuming against a different configuration is refused with
// kFailedPrecondition instead of silently mixing results.
//
// Deliberately NOT serialized (recomputed on resume from restored state):
// drc_initial, drc_improved, peak_improvement_db, and the profile - they are
// pure functions of serialized fields, or timing observability with no
// result value.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/flow/design_flow.hpp"

namespace emi::flow {

// Header tag + format version of the on-disk checkpoint, "EMICKPT 1".
// Reported by `emiplace version` so operators can tell at a glance whether
// two binaries can exchange checkpoints / job state.
inline constexpr std::string_view kCheckpointMagic = "EMICKPT 1";

// The five checkpointable pipeline stages, in execution order. A stage's bit
// is set once its outcome is final - success or permanent failure - so a
// resume never re-runs (and never re-diagnoses) a decided stage.
enum class FlowStage : std::uint8_t {
  kSensitivity = 0,
  kInitialPrediction,
  kRuleDerivation,
  kPlacement,
  kVerification,
};
inline constexpr std::size_t kFlowStageCount = 5;

const char* flow_stage_name(FlowStage s);
std::optional<FlowStage> flow_stage_from_name(std::string_view name);

struct FlowCheckpoint {
  std::uint32_t stages_done = 0;  // bit i: stage i's outcome is final
  std::uint32_t stages_ok = 0;    // bit i: stage i succeeded
  std::uint64_t context_digest = 0;
  FlowResult result;  // serialized slices restored; the rest default

  bool done(FlowStage s) const {
    return (stages_done >> static_cast<unsigned>(s)) & 1u;
  }
  bool ok(FlowStage s) const { return (stages_ok >> static_cast<unsigned>(s)) & 1u; }
  void set(FlowStage s, bool ok_bit) {
    stages_done |= 1u << static_cast<unsigned>(s);
    if (ok_bit) stages_ok |= 1u << static_cast<unsigned>(s);
  }
};

// Digest of the flow inputs a checkpoint is only valid for: coupling
// candidates, initial layout bits, sweep grid, AC solver knobs (when not
// default), sweep acceleration (when enabled), and the flow's fixed
// quadrature, thresholds and placement parameters. It reads the base
// pivot threshold in `opt`: a retry jitters its own per-attempt copy of the
// sweep options, never `opt`, so a retried run keeps the digest.
std::uint64_t flow_context_digest(const BuckConverter& bc,
                                  const place::Layout& initial_layout,
                                  const FlowOptions& opt);

// Full text including the trailing checksum line.
std::string serialize_checkpoint(const FlowCheckpoint& ck);

// FNV-1a over the canonical result serialization (the checkpoint body,
// without header or checksum): the 64-bit identity of a FlowResult's decided
// content. Two results with equal fingerprints serialized identically, so
// the service's "resumed run == uninterrupted run, bit for bit" guarantee is
// checkable by comparing fingerprints. Deliberately computed from the
// in-memory result, never from checkpoint file bytes - the ckpt fault site
// tears files on purpose.
std::uint64_t result_fingerprint(const FlowResult& r);
// Validate + parse; kParseError ("line N: ...") on any corruption.
[[nodiscard]] core::Result<FlowCheckpoint> parse_checkpoint(const std::string& text);

// Atomic write via io::AtomicFileWriter. The `ckpt` fault site tears the
// payload (truncates it before the commit) to simulate a crash mid-write of
// a non-atomic writer; the checksum is what catches it on load.
[[nodiscard]] core::Status save_checkpoint_file(const std::string& path, const FlowCheckpoint& ck);
[[nodiscard]] core::Result<FlowCheckpoint> load_checkpoint_file(const std::string& path);

}  // namespace emi::flow
