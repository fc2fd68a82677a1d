#include "src/svc/job.hpp"

#include <cctype>

#include "src/flow/checkpoint.hpp"
#include "src/io/line_record.hpp"

namespace emi::svc {

namespace {

const char* const kStateNames[] = {"queued",  "running", "done",       "failed",
                                   "cancelled", "stalled", "quarantined"};
constexpr std::size_t kStateCount = sizeof kStateNames / sizeof kStateNames[0];

core::Status field_error(const std::string& key, const std::string& value) {
  return core::Status(core::ErrorCode::kParseError, "svc.job",
                      "malformed job field '" + key + "': " + value);
}

}  // namespace

const char* job_state_name(JobState s) {
  return kStateNames[static_cast<std::size_t>(s)];
}

std::optional<JobState> job_state_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kStateCount; ++i) {
    if (name == kStateNames[i]) return static_cast<JobState>(i);
  }
  return std::nullopt;
}

core::Status validate_job_spec(const JobSpec& spec) {
  if (spec.topology != "buck" && spec.topology != "boost") {
    return core::Status(core::ErrorCode::kInvalidArgument, "svc.job",
                        "unknown topology: " + spec.topology);
  }
  if (spec.sweep_points < 2 || spec.sweep_points > 100000) {
    return core::Status(core::ErrorCode::kInvalidArgument, "svc.job",
                        "sweep_points out of range [2, 100000]");
  }
  if (spec.total_budget_ms < 0 || spec.stage_budget_ms < 0) {
    return core::Status(core::ErrorCode::kInvalidArgument, "svc.job",
                        "budgets must be >= 0");
  }
  if (!spec.stop_after_stage.empty() &&
      !flow::flow_stage_from_name(spec.stop_after_stage)) {
    return core::Status(core::ErrorCode::kInvalidArgument, "svc.job",
                        "unknown stop_after stage: " + spec.stop_after_stage);
  }
  if (spec.poison && spec.stop_after_stage.empty()) {
    return core::Status(core::ErrorCode::kInvalidArgument, "svc.job",
                        "poison requires stop_after");
  }
  // Client names land in space-separated kv records and protocol replies.
  for (const char c : spec.client) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      return core::Status(core::ErrorCode::kInvalidArgument, "svc.job",
                          "client name must not contain whitespace");
    }
  }
  return core::Status();
}

std::vector<io::KvRecord> job_to_records(const JobRecord& job) {
  std::vector<io::KvRecord> r;
  r.emplace_back("id", std::to_string(job.id));
  r.emplace_back("topology", job.spec.topology);
  r.emplace_back("points", std::to_string(job.spec.sweep_points));
  r.emplace_back("budget_ms", std::to_string(job.spec.total_budget_ms));
  r.emplace_back("stage_budget_ms", std::to_string(job.spec.stage_budget_ms));
  r.emplace_back("client", job.spec.client.empty() ? "-" : job.spec.client);
  // Written only when set: records from before the field existed (and
  // default-off jobs today) keep byte-identical serializations.
  if (job.spec.adaptive_sweep) r.emplace_back("adaptive", "1");
  r.emplace_back("stop_after",
                 job.spec.stop_after_stage.empty() ? "-" : job.spec.stop_after_stage);
  r.emplace_back("poison", job.spec.poison ? "1" : "0");
  r.emplace_back("state", job_state_name(job.state));
  r.emplace_back("attempts", std::to_string(job.attempts));
  r.emplace_back("fingerprint", io::hex64(job.fingerprint));
  r.emplace_back("complete", job.complete ? "1" : "0");
  r.emplace_back("detail", job.detail.empty() ? "-" : job.detail);
  return r;
}

core::Result<JobRecord> job_from_records(const std::vector<io::KvRecord>& records) {
  JobRecord job;
  bool have_id = false, have_state = false;
  for (const auto& [key, value] : records) {
    if (key == "id") {
      if (!io::parse_u64(value, job.id)) return field_error(key, value);
      have_id = true;
    } else if (key == "topology") {
      job.spec.topology = value;
    } else if (key == "points") {
      std::uint64_t v = 0;
      if (!io::parse_u64(value, v)) return field_error(key, value);
      job.spec.sweep_points = static_cast<std::size_t>(v);
    } else if (key == "budget_ms") {
      std::uint64_t v = 0;
      if (!io::parse_u64(value, v)) return field_error(key, value);
      job.spec.total_budget_ms = static_cast<std::int64_t>(v);
    } else if (key == "stage_budget_ms") {
      std::uint64_t v = 0;
      if (!io::parse_u64(value, v)) return field_error(key, value);
      job.spec.stage_budget_ms = static_cast<std::int64_t>(v);
    } else if (key == "client") {
      job.spec.client = value == "-" ? std::string() : value;
    } else if (key == "adaptive") {
      if (value != "0" && value != "1") return field_error(key, value);
      job.spec.adaptive_sweep = value == "1";
    } else if (key == "stop_after") {
      job.spec.stop_after_stage = value == "-" ? std::string() : value;
    } else if (key == "poison") {
      if (value != "0" && value != "1") return field_error(key, value);
      job.spec.poison = value == "1";
    } else if (key == "attempts") {
      std::uint64_t v = 0;
      if (!io::parse_u64(value, v) || v > 0xffffffffull) return field_error(key, value);
      job.attempts = static_cast<std::uint32_t>(v);
    } else if (key == "state") {
      const std::optional<JobState> s = job_state_from_name(value);
      if (!s) return field_error(key, value);
      job.state = *s;
      have_state = true;
    } else if (key == "fingerprint") {
      if (!io::parse_hex64(value, job.fingerprint)) return field_error(key, value);
    } else if (key == "complete") {
      if (value != "0" && value != "1") return field_error(key, value);
      job.complete = value == "1";
    } else if (key == "detail") {
      job.detail = value == "-" ? std::string() : value;
    } else {
      return core::Status(core::ErrorCode::kParseError, "svc.job",
                          "unknown job field: " + key);
    }
  }
  if (!have_id || !have_state) {
    return core::Status(core::ErrorCode::kParseError, "svc.job",
                        "job record missing id or state");
  }
  if (core::Status st = validate_job_spec(job.spec); !st.ok()) return st;
  return job;
}

core::Status save_job_record(const std::string& path, const JobRecord& job) {
  const std::vector<io::KvRecord> records = job_to_records(job);
  return io::save_kv_file(path, kJobMagic, records);
}

core::Result<JobRecord> load_job_record(const std::string& path) {
  core::Result<std::vector<io::KvRecord>> records = io::load_kv_file(path, kJobMagic);
  if (!records.ok()) return records.status();
  return job_from_records(records.value());
}

}  // namespace emi::svc
