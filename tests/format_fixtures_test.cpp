// Byte-compatibility of the on-disk formats against files written by an
// earlier release (tests/data): a complete EMICKPT 1 checkpoint of
// `emiplace flow buck --checkpoint`, one written under
// `--fault-inject lu:0.5:42` (multi-word diag messages), and the EMIJOB 1
// job.state of a finished serve job (`emiplace submit buck --client
// fixture`). Each must load, keep its fields, and re-serialize to the same
// bytes; the complete checkpoint must also resume under the options that
// wrote it.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "src/flow/buck_converter.hpp"
#include "src/flow/checkpoint.hpp"
#include "src/flow/design_flow.hpp"
#include "src/io/kvfile.hpp"
#include "src/io/line_record.hpp"
#include "src/svc/job.hpp"

namespace emi {
namespace {

// Both checkpoints and the job come from the buck flow at the CLI's 60
// sweep points, so they share the context digest and the fingerprint.
constexpr std::uint64_t kBuckDigest = 0x7a176de18e93caa2ull;
constexpr std::uint64_t kBuckFingerprint = 0x6a34fcece0e8e0f7ull;

std::string fixture(const char* name) {
  return std::string(EMI_TEST_DATA_DIR) + "/" + name;
}

std::string bytes_of(const std::string& path) {
  core::Result<std::string> text = io::read_file(path, "test");
  EXPECT_TRUE(text.ok()) << text.status().to_string();
  return text.ok() ? std::move(text).value() : std::string();
}

// The options `emiplace flow buck` runs with.
flow::FlowOptions cli_flow_options() {
  flow::FlowOptions opt;
  opt.sweep.n_points = 60;
  return opt;
}

TEST(FormatFixtures, CompleteCheckpointLoadsAndReserializesByteForByte) {
  const std::string path = fixture("flow_buck_complete.ckpt");
  const core::Result<flow::FlowCheckpoint> loaded = flow::load_checkpoint_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  const flow::FlowCheckpoint& ck = loaded.value();
  EXPECT_EQ(ck.context_digest, kBuckDigest);
  EXPECT_EQ(ck.stages_done, (1u << flow::kFlowStageCount) - 1u);
  EXPECT_EQ(ck.stages_ok, ck.stages_done);

  const flow::FlowResult& r = ck.result;
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.field_solves_saved, 10u);
  EXPECT_EQ(r.ranking.size(), 21u);
  EXPECT_EQ(r.simulated_pairs.size(), 11u);
  EXPECT_EQ(r.rules.size(), 11u);
  EXPECT_EQ(r.initial_prediction.freqs_hz.size(), 60u);
  EXPECT_EQ(r.initial_no_coupling.level_dbuv.size(), 60u);
  EXPECT_EQ(r.improved_prediction.level_dbuv.size(), 60u);
  EXPECT_DOUBLE_EQ(r.initial_prediction.freqs_hz.front(), 150e3);
  EXPECT_FALSE(r.improved_layout.placements.empty());
  EXPECT_TRUE(r.diagnostics.empty());
  EXPECT_EQ(flow::result_fingerprint(r), kBuckFingerprint);

  EXPECT_EQ(flow::serialize_checkpoint(ck), bytes_of(path));
}

TEST(FormatFixtures, FaultCheckpointKeepsMultiWordDiagnostics) {
  const std::string path = fixture("flow_buck_lu_fault.ckpt");
  const core::Result<flow::FlowCheckpoint> loaded = flow::load_checkpoint_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  const flow::FlowCheckpoint& ck = loaded.value();
  EXPECT_EQ(ck.context_digest, kBuckDigest);
  EXPECT_TRUE(ck.result.complete);

  const char* const stages[] = {"flow.sensitivity", "flow.initial_prediction",
                                "flow.verification"};
  ASSERT_EQ(ck.result.diagnostics.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const flow::StageDiagnostic& d = ck.result.diagnostics[i];
    EXPECT_EQ(d.stage, stages[i]);
    EXPECT_EQ(d.attempts, 2);
    EXPECT_TRUE(d.recovered);
    EXPECT_EQ(d.status.code(), core::ErrorCode::kInjectedFault);
    EXPECT_EQ(d.status.stage(), "ckt.ac");
    EXPECT_EQ(d.status.message(),
              "sweep failed at 60/60 points; first at index 0 (150000.000000 Hz): "
              "injected singular pivot (EMI_FAULT_INJECT site lu)");
  }

  EXPECT_EQ(flow::serialize_checkpoint(ck), bytes_of(path));
}

TEST(FormatFixtures, CompleteCheckpointResumesUnderItsOptions) {
  // Resume rewrites its checkpoint, so it runs on a copy.
  const std::string ckpt = std::string(::testing::TempDir()) + "fixture_resume.ckpt";
  std::filesystem::copy_file(fixture("flow_buck_complete.ckpt"), ckpt,
                             std::filesystem::copy_options::overwrite_existing);

  flow::FlowOptions opt = cli_flow_options();
  opt.checkpoint_path = ckpt;
  flow::BuckConverter bc = flow::make_buck_converter();
  const place::Layout initial = flow::layout_unfavorable(bc);
  EXPECT_EQ(flow::flow_context_digest(bc, initial, opt), kBuckDigest);

  const flow::FlowResult res = flow::resume_design_flow(bc, initial, opt);
  EXPECT_TRUE(res.complete);
  EXPECT_TRUE(res.diagnostics.empty());  // a refused digest would be one
  EXPECT_EQ(flow::result_fingerprint(res), kBuckFingerprint);
  std::filesystem::remove(ckpt);
}

TEST(FormatFixtures, FinishedJobRecordLoadsAndReserializesByteForByte) {
  const std::string path = fixture("job_buck_done.state");
  const core::Result<svc::JobRecord> loaded = svc::load_job_record(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  const svc::JobRecord& job = loaded.value();
  EXPECT_EQ(job.id, 1u);
  EXPECT_EQ(job.spec.topology, "buck");
  EXPECT_EQ(job.spec.sweep_points, 60u);
  EXPECT_EQ(job.spec.total_budget_ms, 0);
  EXPECT_EQ(job.spec.stage_budget_ms, 0);
  EXPECT_EQ(job.spec.client, "fixture");
  EXPECT_FALSE(job.spec.adaptive_sweep);
  EXPECT_TRUE(job.spec.stop_after_stage.empty());
  EXPECT_FALSE(job.spec.poison);
  EXPECT_EQ(job.state, svc::JobState::kDone);
  EXPECT_EQ(job.attempts, 1u);
  EXPECT_EQ(job.fingerprint, kBuckFingerprint);
  EXPECT_TRUE(job.complete);
  EXPECT_TRUE(job.detail.empty());

  EXPECT_EQ(io::serialize_kv(svc::kJobMagic, svc::job_to_records(job)), bytes_of(path));
}

}  // namespace
}  // namespace emi
