// emibench runner: runs one benchmark workload against the library's public
// APIs and prints its raw observations on stdout as JSON lines: one line per
// operation as it completes (wall time, the outputs the checks compare
// against the committed references, work counters), then one line with the
// run's set-up times, peak RSS, workload counters and (traced runs) the span
// log. emibench/run.py turns them into metrics; this program only measures.
//
//   emibench_runner --workload flow_buck|serve_mixed|large_board|serve_mixed_fsync|refs
//                   --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Workloads (why each exists: emibench/README.md):
//   flow_buck    one caller, run_design_flow back to back on the buck
//                golden, fresh converter and cold extractor per flow.
//   serve_mixed  in-process Service, 2 executors, behind SocketServer on a
//                Unix socket; 4 client connections loop SUBMIT -> RESULT
//                over {buck, boost} x {exact, adaptive}. Fixed job count.
//                The library's fsync calls are counted and elided.
//   large_board  one caller screens the 64-stage large scenario: a cold
//                clustered rank_geometric_coupling plus a 60-point
//                conducted_emission of its ladder circuit.
//   serve_mixed_fsync  serve_mixed with every fsync performed (not gated).
//   refs         prints the reference outputs the checks compare against.
//
// Traced runs (--trace 1) record spans on every even-numbered operation (in
// serve_mixed, every even-numbered kind rotation of a client) and leave the
// others bare, so the overhead of tracing is measured inside one run on
// interleaved operations.
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <latch>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/thread_pool.hpp"
#include "src/emi/emission.hpp"
#include "src/emi/sensitivity.hpp"
#include "src/flow/buck_converter.hpp"
#include "src/flow/checkpoint.hpp"
#include "src/flow/design_flow.hpp"
#include "src/flow/flow_units.hpp"
#include "src/flow/scenario_large.hpp"
#include "src/numeric/rng.hpp"
#include "src/peec/coupling.hpp"
#include "src/peec/partial_inductance.hpp"
#include "src/svc/server.hpp"
#include "src/svc/service.hpp"

namespace {

using namespace emi;
namespace fs = std::filesystem;

// --- workload constants -----------------------------------------------------

constexpr std::size_t kSweepPoints = 60;   // what `emiplace flow` uses
constexpr int kSetupRepeats = 9;           // set-ups per run; run.py takes the median
constexpr std::size_t kServeExecutors = 2;
constexpr std::size_t kServeClients = 4;
// serve_mixed runs a fixed number of jobs, not a fixed time, so every run
// does the same work: this many per second of --seconds (a little under its
// throughput here), rounded to whole kind rotations per client.
constexpr double kServeJobsPerSecond = 80.0;
// Each client pauses a seeded random 0..kThinkMaxUs between a RESULT reply
// and its next SUBMIT. Without it the four closed loops fall into lockstep:
// all parked on RESULT at once, nothing wakes the server's poll loop before
// its 20 ms tick, and they are all released together - a second, slower
// steady state that a run can enter or leave at any point.
constexpr std::uint64_t kThinkMaxUs = 20000;
constexpr std::size_t kBoardStages = 64;
constexpr std::size_t kTopPairs = 10;
// The ladder's load node sits below the -120 dBuV floor at every frequency
// after 64 filter stages, which would make the spectrum check vacuous; the
// first stage's output carries a live spectrum. Every point still solves the
// whole MNA system, so the probe node does not change the work.
constexpr const char* kBoardProbeNode = "n1";
// large_board ships references for these scenario seeds; --seed picks one.
constexpr std::uint64_t kBoardSeeds = 16;

// The serve_mixed job kinds: {buck, boost} x {exact, adaptive} at 60 points.
struct JobKind {
  const char* name;
  const char* topology;
  bool adaptive;
};
constexpr std::array<JobKind, 4> kJobKinds = {{{"buck_exact", "buck", false},
                                               {"buck_adaptive", "buck", true},
                                               {"boost_exact", "boost", false},
                                               {"boost_adaptive", "boost", true}}};

// --- clock, json ------------------------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-6;
}

std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

// Comma-joined JSON members or elements.
std::string join(const std::vector<std::string>& parts) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ',';
    out += parts[i];
  }
  return out;
}

// --- fsync ------------------------------------------------------------------

// Every fsync the library makes (io::AtomicFileWriter, before each rename)
// goes through the definition below, which counts it and, while
// g_elide_fsync is set, returns success without flushing. serve_mixed
// elides, so its wall times leave out the flush latency of the disk under
// the checkout, which other users of a shared disk move from run to run;
// serve_mixed_fsync performs every flush.
std::atomic<std::uint64_t> g_fsync_calls{0};
std::atomic<bool> g_elide_fsync{false};

}  // namespace

extern "C" int fsync(int fd) {
  g_fsync_calls.fetch_add(1, std::memory_order_relaxed);
  if (g_elide_fsync.load(std::memory_order_relaxed)) return 0;
  return static_cast<int>(::syscall(SYS_fsync, fd));
}

namespace {

// --- operation records ------------------------------------------------------

// Writes one JSON line per operation to stdout as it completes, so the
// runner's memory, and the peak RSS it reports, does not grow with the
// number of operations a run completes. Client threads share it.
class OpSink {
 public:
  void emit(const std::string& json) {
    const std::lock_guard<std::mutex> lock(mu_);
    std::fputs(json.c_str(), stdout);
    std::fputc('\n', stdout);
  }

 private:
  std::mutex mu_;
};

// --- spans ------------------------------------------------------------------

// One layer call as seen from the benchmark: name, start, end, the span that
// caused it (-1 for a root) and the operation it belongs to. Kept in memory,
// written with the result document at exit.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t parent;
  std::uint64_t op;
};

// Spans of one thread. Not synchronized: each client thread owns its log.
class SpanLog {
 public:
  std::size_t open(const char* name, std::uint64_t op) {
    const std::int64_t parent =
        stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
    spans_.push_back({name, now_ns(), 0, parent, op});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t idx) {
    spans_[idx].end_ns = now_ns();
    stack_.pop_back();
  }
  // A span whose times were taken elsewhere (client-side request timing).
  std::size_t add(const char* name, std::int64_t t0, std::int64_t t1,
                  std::int64_t parent, std::uint64_t op) {
    spans_.push_back({name, t0, t1, parent, op});
    return spans_.size() - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

// Opens a span for its lifetime; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t op) : log_(log) {
    if (log_ != nullptr) idx_ = log_->open(name, op);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::size_t idx_ = 0;
};

// Spans of several per-thread logs as one JSON array
// [name, start_us, end_us, parent, op] with times relative to `t0` and
// parents re-indexed into the merged array.
std::string spans_json(const std::vector<const SpanLog*>& logs, std::int64_t t0) {
  std::vector<std::string> rows;
  std::int64_t base = 0;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      const std::int64_t parent = s.parent < 0 ? -1 : s.parent + base;
      rows.push_back("[" + jstr(s.name) + "," +
                     jnum(static_cast<double>(s.start_ns - t0) * 1e-3) + "," +
                     jnum(static_cast<double>(s.end_ns - t0) * 1e-3) + "," +
                     std::to_string(parent) + "," + std::to_string(s.op) + "]");
    }
    base += static_cast<std::int64_t>(log->spans().size());
  }
  return "[" + join(rows) + "]";
}

// --- run record -------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

// What every workload hands back besides its operation lines: raw
// observations, no statistics.
struct RunRecord {
  std::vector<double> setup_s;
  double measured_s = 0.0;              // wall time of the timed phase
  std::vector<std::string> run_fields;  // workload-level JSON members
  std::string spans = "[]";
};

std::string counters_json(const std::vector<std::pair<const char*, std::uint64_t>>& cs) {
  std::vector<std::string> members;
  members.reserve(cs.size());
  for (const auto& [name, v] : cs) {
    members.push_back(jstr(name) + ":" + std::to_string(v));
  }
  return "{" + join(members) + "}";
}

// Times kSetupRepeats set-ups. Each starts the global pool afresh and then
// runs `setup`, which builds the workload's inputs and runs its warm-up.
// `teardown` undoes all but the last set-up, pool included, outside the
// timed region; the last one's pool and inputs serve the timed phase.
template <typename Setup, typename Teardown>
std::vector<double> time_setups(Setup&& setup, Teardown&& teardown) {
  std::vector<double> out;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (i > 0) {
      teardown();
      core::ThreadPool::set_global_thread_count(1);  // joins the old workers
    }
    const std::int64_t t0 = now_ns();
    core::ThreadPool::set_global_thread_count(core::ThreadPool::default_thread_count());
    setup();
    out.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  return out;
}

// --- flow_buck --------------------------------------------------------------

constexpr std::array<const char*, flow::kFlowStageCount> kStageSpans = {
    "flow.sensitivity", "flow.initial_prediction", "flow.rule_derivation",
    "flow.placement", "flow.verification"};

flow::FlowOptions flow_options(bool adaptive) {
  flow::FlowOptions opt;
  opt.sweep.n_points = kSweepPoints;
  if (adaptive) {
    opt.sweep_accel.adaptive = true;
    opt.sweep_accel.surrogate = true;
  }
  return opt;
}

// One flow exactly as `emiplace flow` runs it: fresh converter, unfavorable
// initial layout, cold extractor. It steps the FlowEngine that
// run_design_flow wraps, one span per unit when traced.
flow::FlowResult run_flow(const std::string& topology, bool adaptive, SpanLog* log,
                          std::uint64_t op) {
  ScopedSpan root(log, "flow", op);
  flow::BuckConverter bc =
      topology == "buck" ? flow::make_buck_converter() : flow::make_boost_converter();
  const place::Layout initial = topology == "buck" ? flow::layout_unfavorable(bc)
                                                   : flow::boost_layout_unfavorable(bc);
  const flow::FlowOptions opt = flow_options(adaptive);  // the engine keeps a reference
  flow::FlowEngine engine(bc, initial, opt);
  while (const std::optional<flow::FlowStage> unit = engine.next_unit()) {
    ScopedSpan stage(log, kStageSpans[static_cast<std::size_t>(*unit)], op);
    if (!engine.step()) break;
  }
  return engine.finish();
}

constexpr std::array<const char*, 15> kFlowCounters = {
    "peec.kernel_sample_evals", "peec.kernel_exact_pairs",
    "peec.kernel_cluster_pairs", "peec.kernel_cluster_skipped",
    "peec.mutual_cache_hits",   "peec.mutual_cache_misses",
    "place.candidates_evaluated", "pool.batches",
    "pool.chunks",              "pool.steals",
    "pool.serial_fallbacks",    "sweep.full_solves",
    "sweep.interp_points",      "sweep.surrogate_evals",
    "sweep.escalations"};

// flow_buck: one caller, exact flows back to back. A set-up is the pool
// start and one warm-up flow.
RunRecord workload_flow_buck(const Args& args, OpSink& sink) {
  RunRecord rec;
  rec.setup_s = time_setups([] { (void)run_flow("buck", false, nullptr, 0); }, [] {});

  SpanLog log;
  const std::int64_t t_start = now_ns();
  const std::int64_t t_end = t_start + static_cast<std::int64_t>(args.seconds * 1e9);
  std::uint64_t op = 0;
  do {
    const bool traced = args.trace && op % 2 == 0;
    const std::int64_t t0 = now_ns();
    const flow::FlowResult res = run_flow("buck", false, traced ? &log : nullptr, op);
    const std::int64_t t1 = now_ns();
    std::vector<std::pair<const char*, std::uint64_t>> cs;
    for (const char* name : kFlowCounters) cs.emplace_back(name, res.profile.count(name));
    sink.emit("{\"ms\":" + jnum(ms_between(t0, t1)) +
              ",\"traced\":" + (traced ? "1" : "0") +
              ",\"complete\":" + (res.complete ? "1" : "0") +
              ",\"diagnostics\":" + std::to_string(res.diagnostics.size()) +
              ",\"fingerprint\":" + jstr(hex64(flow::result_fingerprint(res))) +
              ",\"counters\":" + counters_json(cs) + "}");
    ++op;
  } while (now_ns() < t_end);
  rec.measured_s = static_cast<double>(now_ns() - t_start) * 1e-9;
  if (args.trace) rec.spans = spans_json({&log}, t_start);
  return rec;
}

// --- large_board ------------------------------------------------------------

struct Board {
  flow::LargeScenario scenario;
  flow::LargeScenarioCircuit circuit;
};

Board make_board(std::uint64_t board_seed) {
  flow::LargeScenarioOptions opt;
  opt.n_stages = kBoardStages;
  opt.seed = board_seed;
  return Board{flow::make_large_scenario(opt), flow::make_large_scenario_circuit(opt)};
}

struct BoardResult {
  std::vector<emc::GeometricCoupling> ranked;
  emc::EmissionSpectrum spectrum;
  peec::KernelStats kernel;  // deltas around the extraction call alone
  core::PoolStats pool;      // deltas around the whole operation
};

// One screening operation: a cold clustered coupling ranking of every model
// pair, then the dense emission sweep of the ladder twin.
BoardResult screen_board(const Board& b, SpanLog* log, std::uint64_t op) {
  ScopedSpan root(log, "board", op);
  BoardResult out;
  const core::PoolStats p0 = core::ThreadPool::global().stats();
  peec::KernelOptions kopt;
  kopt.cluster = true;
  const peec::KernelStats k0 = peec::kernel_stats();
  {
    ScopedSpan span(log, "peec.extract", op);
    const peec::CouplingExtractor extractor(peec::QuadratureOptions{}, kopt);
    out.ranked = emc::rank_geometric_coupling(extractor, b.scenario.placed,
                                              b.scenario.names);
  }
  const peec::KernelStats k1 = peec::kernel_stats();
  {
    ScopedSpan span(log, "ckt.sweep", op);
    emc::EmissionSweepOptions sweep;
    sweep.n_points = kSweepPoints;
    out.spectrum = emc::conducted_emission(b.circuit.circuit, kBoardProbeNode,
                                           b.circuit.source, sweep);
  }
  const core::PoolStats p1 = core::ThreadPool::global().stats();
  out.kernel = {k1.sample_evals - k0.sample_evals,     k1.exact_pairs - k0.exact_pairs,
                k1.analytic_pairs - k0.analytic_pairs, k1.far_field_pairs - k0.far_field_pairs,
                k1.cluster_pairs - k0.cluster_pairs,   k1.cluster_skipped - k0.cluster_skipped};
  out.pool = {p1.batches - p0.batches, p1.chunks - p0.chunks, p1.steals - p0.steals,
              p1.inline_batches - p0.inline_batches,
              p1.serial_fallbacks - p0.serial_fallbacks};
  return out;
}

// The outputs the large_board check compares: pair count, the strongest
// couplings and the spectrum.
std::string board_outputs_json(const BoardResult& r) {
  std::vector<std::string> top;
  for (std::size_t i = 0; i < std::min(kTopPairs, r.ranked.size()); ++i) {
    const emc::GeometricCoupling& g = r.ranked[i];
    top.push_back("[" + jstr(g.inductor_a) + "," + jstr(g.inductor_b) + "," +
                  jnum(g.k_abs) + "]");
  }
  std::vector<std::string> levels;
  for (const double v : r.spectrum.level_dbuv) levels.push_back(jnum(v));
  return "\"pairs\":" + std::to_string(r.ranked.size()) + ",\"top\":[" + join(top) +
         "],\"levels_dbuv\":[" + join(levels) + "]";
}

std::uint64_t board_seed_for(std::uint64_t seed) { return 1 + seed % kBoardSeeds; }

// large_board: one caller screens one board over and over. A set-up is the
// pool start, the board build and one warm-up screening.
RunRecord workload_large_board(const Args& args, OpSink& sink) {
  RunRecord rec;
  const std::uint64_t board_seed = board_seed_for(args.seed);
  std::optional<Board> board;
  rec.setup_s = time_setups(
      [&] {
        board.emplace(make_board(board_seed));
        (void)screen_board(*board, nullptr, 0);
      },
      [&] { board.reset(); });
  const std::size_t unknowns = board->circuit.circuit.unknown_count();

  SpanLog log;
  const std::int64_t t_start = now_ns();
  const std::int64_t t_end = t_start + static_cast<std::int64_t>(args.seconds * 1e9);
  std::uint64_t op = 0;
  do {
    const bool traced = args.trace && op % 2 == 0;
    const std::int64_t t0 = now_ns();
    const BoardResult r = screen_board(*board, traced ? &log : nullptr, op);
    const std::int64_t t1 = now_ns();
    const std::string counters = counters_json({
        {"peec.kernel_sample_evals", r.kernel.sample_evals},
        {"peec.kernel_exact_pairs", r.kernel.exact_pairs},
        {"peec.kernel_cluster_pairs", r.kernel.cluster_pairs},
        {"peec.kernel_cluster_skipped", r.kernel.cluster_skipped},
        {"pool.batches", r.pool.batches},
        {"pool.chunks", r.pool.chunks},
        {"pool.steals", r.pool.steals},
        {"pool.serial_fallbacks", r.pool.serial_fallbacks},
        {"ckt.unknowns", unknowns},
    });
    sink.emit("{\"ms\":" + jnum(ms_between(t0, t1)) + ",\"traced\":" + (traced ? "1" : "0") +
              "," + board_outputs_json(r) + ",\"counters\":" + counters + "}");
    ++op;
  } while (now_ns() < t_end);
  rec.measured_s = static_cast<double>(now_ns() - t_start) * 1e-9;
  rec.run_fields.push_back("\"board_seed\":" + std::to_string(board_seed));
  rec.run_fields.push_back("\"sweep_points\":" + std::to_string(kSweepPoints));
  if (args.trace) rec.spans = spans_json({&log}, t_start);
  return rec;
}

// --- serve_mixed ------------------------------------------------------------

// A blocking line client on one persistent Unix-socket connection.
class LineClient {
 public:
  explicit LineClient(const std::string& path) {
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + path);
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    // The server binds on its own thread; give it a few seconds to appear.
    for (int attempt = 0;; ++attempt) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd_ < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) break;
      const int err = errno;
      ::close(fd_);
      if (attempt >= 5000) {
        throw std::runtime_error("connect " + path + ": " + std::strerror(err));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~LineClient() { ::close(fd_); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  void send_line(const std::string& line) {
    const std::string buf = line + "\n";
    std::size_t off = 0;
    while (off < buf.size()) {
      const ssize_t n = ::send(fd_, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      off += static_cast<std::size_t>(n);
    }
  }

  std::string read_line() {
    for (;;) {
      const std::size_t nl = pending_.find('\n');
      if (nl != std::string::npos) {
        std::string line = pending_.substr(0, nl);
        pending_.erase(0, nl + 1);
        return line;
      }
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) throw std::runtime_error("connection closed before reply");
      pending_.append(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string pending_;
};

// Value of ` key=<value>` in a reply line, empty when absent.
std::string reply_field(const std::string& reply, const std::string& key) {
  const std::string needle = " " + key + "=";
  const std::size_t pos = reply.find(needle);
  if (pos == std::string::npos) return {};
  const std::size_t val = pos + needle.size();
  return reply.substr(val, reply.find(' ', val) - val);
}

std::string submit_line(const JobKind& kind, const std::string& client) {
  return std::string("SUBMIT topology=") + kind.topology + " points=" +
         std::to_string(kSweepPoints) + (kind.adaptive ? " adaptive=1" : "") +
         " client=" + client;
}

// Service + socket server + the thread serving it, torn down in reverse.
class ServeStack {
 public:
  ServeStack(const std::string& state_dir, const std::string& socket_path)
      : service_(service_options(state_dir)),
        server_(service_, socket_path),
        thread_([this] {
          // A server that cannot bind leaves the clients unable to connect;
          // say why here, where the status is known.
          const core::Status st = server_.serve();
          if (!st.ok()) std::fprintf(stderr, "emibench_runner: %s\n", st.to_string().c_str());
        }) {}
  ~ServeStack() {
    server_.stop();
    thread_.join();
  }
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  svc::Service& service() { return service_; }

  static svc::ServiceOptions service_options(const std::string& state_dir) {
    svc::ServiceOptions opt;
    opt.state_dir = state_dir;
    opt.executors = kServeExecutors;
    return opt;
  }

 private:
  svc::Service service_;
  svc::SocketServer server_;
  std::thread thread_;
};

// One client's closed loop. Kinds rotate through a seed-permuted order, with
// a seeded think time between jobs.
struct ClientJobs {
  std::vector<std::uint64_t> ids;
  std::int64_t first_submit_ns = 0;
  std::int64_t last_done_ns = 0;
  SpanLog log;
  std::string error;
};

void run_client(const std::string& socket_path, std::size_t client, std::uint64_t seed,
                std::size_t jobs, bool trace, std::latch& start, OpSink& sink,
                ClientJobs& out) {
  bool arrived = false;
  try {
    std::array<std::size_t, kJobKinds.size()> order = {0, 1, 2, 3};
    num::Rng rng(seed * kServeClients + client);
    for (std::size_t i = order.size() - 1; i > 0; --i) {
      std::swap(order[i], order[rng.next_u64() % (i + 1)]);
    }
    const std::string name = "c" + std::to_string(client);
    LineClient conn(socket_path);
    arrived = true;
    start.arrive_and_wait();
    for (std::size_t j = 0; j < jobs; ++j) {
      const JobKind& kind = kJobKinds[order[j % order.size()]];
      const std::uint64_t op = client * jobs + j;
      // Every other rotation, so traced and bare jobs have the same kind mix.
      const bool traced = trace && (j / kJobKinds.size()) % 2 == 0;
      const std::int64_t t0 = now_ns();
      conn.send_line(submit_line(kind, name));
      const std::string ack = conn.read_line();
      const std::int64_t t1 = now_ns();
      std::string reply = ack;
      std::uint64_t id = 0;
      if (ack.rfind("OK id=", 0) == 0) {
        id = std::stoull(ack.substr(6));
        conn.send_line("RESULT job=" + std::to_string(id));
        reply = conn.read_line();
      }
      const std::int64_t t2 = now_ns();
      if (j == 0) out.first_submit_ns = t0;
      out.last_done_ns = t2;
      if (traced) {
        const auto root = static_cast<std::int64_t>(out.log.add("job", t0, t2, -1, op));
        out.log.add("svc.submit", t0, t1, root, op);
        out.log.add("svc.result", t1, t2, root, op);
      }
      if (id != 0) out.ids.push_back(id);
      sink.emit("{\"ms\":" + jnum(ms_between(t0, t2)) +
                ",\"ack_ms\":" + jnum(ms_between(t0, t1)) +
                ",\"traced\":" + (traced ? "1" : "0") +
                ",\"client\":" + std::to_string(client) +
                ",\"kind\":" + jstr(kind.name) +
                ",\"state\":" + jstr(reply_field(reply, "state")) +
                ",\"complete\":" + jstr(reply_field(reply, "complete")) +
                ",\"fingerprint\":" + jstr(reply_field(reply, "fingerprint")) +
                ",\"reply\":" + jstr(reply.substr(0, 2)) + "}");
      std::this_thread::sleep_for(std::chrono::microseconds(rng.next_u64() % kThinkMaxUs));
    }
  } catch (const std::exception& e) {
    out.error = e.what();
    if (!arrived) start.count_down();  // never leave the other clients waiting
  }
}

// Fills the global extraction tier: one job of every kind, one at a time,
// from a session no measured client uses - so measured sessions start with
// empty private tiers and every job's tier traffic is the same on every run.
// It submits in process and waits with Service::wait, so set-up time does
// not depend on where the server's poll tick falls.
void warm_up(svc::Service& service) {
  for (const JobKind& kind : kJobKinds) {
    svc::JobSpec spec;
    spec.topology = kind.topology;
    spec.sweep_points = kSweepPoints;
    spec.adaptive_sweep = kind.adaptive;
    spec.client = "warmup";
    const core::Result<std::uint64_t> id = service.submit(spec);
    if (!id.ok()) throw std::runtime_error("warm-up submit: " + id.status().to_string());
    const core::Result<svc::JobRecord> done = service.wait(id.value());
    if (!done.ok() || done.value().state != svc::JobState::kDone) {
      throw std::runtime_error(std::string("warm-up job did not finish: ") + kind.name);
    }
  }
}

std::uint64_t file_bytes(const fs::path& p) {
  std::error_code ec;
  const std::uintmax_t n = fs::file_size(p, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

// Commits the filesystem holding `dir` - its journal, and the discards of
// blocks freed so far - outside any timed region, so that a timed phase does
// not pay for writes and deletions made before it.
void sync_filesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw std::runtime_error("open " + dir + ": " + std::strerror(errno));
  const int rc = ::syncfs(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) throw std::runtime_error("syncfs " + dir + ": " + std::strerror(err));
}

// serve_mixed (fsync elided) and serve_mixed_fsync. A set-up is the pool
// start, the service start over a fresh state dir, the socket server and the
// warm-up round.
RunRecord workload_serve(const Args& args, OpSink& sink, bool elide_fsync) {
  g_elide_fsync.store(elide_fsync);
  RunRecord rec;
  const std::string tag = std::to_string(::getpid());
  const std::string socket_path = args.work_dir + "/s" + tag + ".sock";
  std::string state_dir;
  std::optional<ServeStack> stack;
  int setup_idx = 0;
  rec.setup_s = time_setups(
      [&] {
        state_dir = args.work_dir + "/state-" + tag + "-" + std::to_string(setup_idx++);
        stack.emplace(state_dir, socket_path);
        warm_up(stack->service());
      },
      [&] { stack.reset(); });

  const std::size_t rotations = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.seconds * kServeJobsPerSecond /
                                      static_cast<double>(kServeClients * kJobKinds.size()) +
                                  0.5));
  const std::size_t jobs_per_client = rotations * kJobKinds.size();
  sync_filesystem(args.work_dir);
  const svc::ServiceStats s0 = stack->service().stats();
  const std::uint64_t fsyncs0 = g_fsync_calls.load();

  std::vector<ClientJobs> clients(kServeClients);
  std::latch start(static_cast<std::ptrdiff_t>(kServeClients));
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kServeClients; ++c) {
      threads.emplace_back(run_client, std::cref(socket_path), c, args.seed,
                           jobs_per_client, args.trace, std::ref(start), std::ref(sink),
                           std::ref(clients[c]));
    }
    for (std::thread& t : threads) t.join();
  }
  const svc::ServiceStats s1 = stack->service().stats();
  const std::uint64_t fsyncs1 = g_fsync_calls.load();
  stack.reset();  // every job is terminal; this drains nothing

  std::int64_t first = 0;
  std::int64_t last = 0;
  std::uint64_t bytes = 0;
  std::size_t ids = 0;
  std::vector<const SpanLog*> logs;
  for (const ClientJobs& c : clients) {
    if (!c.error.empty()) throw std::runtime_error("client: " + c.error);
    first = first == 0 ? c.first_submit_ns : std::min(first, c.first_submit_ns);
    last = std::max(last, c.last_done_ns);
    for (const std::uint64_t id : c.ids) {
      const fs::path dir = fs::path(state_dir) / ("job-" + std::to_string(id));
      bytes += file_bytes(dir / "job.state") + file_bytes(dir / "flow.ckpt");
      ++ids;
    }
    logs.push_back(&c.log);
  }
  rec.measured_s = static_cast<double>(last - first) * 1e-9;

  std::vector<std::pair<const char*, std::uint64_t>> cs = {
      {"jobs", ids},
      {"state_bytes", bytes},
      {"fsyncs", fsyncs1 - fsyncs0},
      {"peec.global_mutual_hits", s1.global_cache.mutual_hits - s0.global_cache.mutual_hits},
      {"peec.global_mutual_misses",
       s1.global_cache.mutual_misses - s0.global_cache.mutual_misses},
      {"sweep.full_solves", s1.sweep_full_solves - s0.sweep_full_solves},
      {"sweep.interp_points", s1.sweep_interp_points - s0.sweep_interp_points},
      {"sweep.surrogate_evals", s1.sweep_surrogate_evals - s0.sweep_surrogate_evals},
      {"sweep.escalations", s1.sweep_escalations - s0.sweep_escalations},
  };
  if (args.trace) {
    // The restart scan over everything this run left on disk.
    const std::int64_t t0 = now_ns();
    svc::Service recovered(ServeStack::service_options(state_dir));
    const std::int64_t t1 = now_ns();
    cs.emplace_back("svc.records_recovered", recovered.stats().recovered);
    rec.run_fields.push_back("\"recover_ms\":" + jnum(ms_between(t0, t1)));
    rec.spans = spans_json(logs, first);
  }
  // Deleting frees blocks the filesystem may discard at its next journal
  // commit, so every state dir of the run goes only now, after all timing,
  // and the commit happens before the run ends.
  for (int i = 0; i < setup_idx; ++i) {
    fs::remove_all(args.work_dir + "/state-" + tag + "-" + std::to_string(i));
  }
  sync_filesystem(args.work_dir);
  rec.run_fields.push_back("\"fsync\":" + jstr(elide_fsync ? "elided" : "performed"));
  rec.run_fields.push_back("\"jobs_per_client\":" + std::to_string(jobs_per_client));
  rec.run_fields.push_back("\"counters\":" + counters_json(cs));
  return rec;
}

// --- refs -------------------------------------------------------------------

// The reference outputs: one direct flow per serve_mixed job kind (the
// buck_exact one is also flow_buck's), and the large_board outputs for every
// shipped scenario seed.
void print_refs() {
  std::vector<std::string> kinds;
  for (const JobKind& kind : kJobKinds) {
    const flow::FlowResult res = run_flow(kind.topology, kind.adaptive, nullptr, 0);
    if (!res.complete || !res.diagnostics.empty()) {
      throw std::runtime_error(std::string("reference flow incomplete: ") + kind.name);
    }
    kinds.push_back(jstr(kind.name) + ":" + jstr(hex64(flow::result_fingerprint(res))));
  }
  std::vector<std::string> boards;
  for (std::uint64_t s = 1; s <= kBoardSeeds; ++s) {
    const Board b = make_board(s);
    boards.push_back("\"" + std::to_string(s) + "\":{" +
                     board_outputs_json(screen_board(b, nullptr, 0)) + "}");
  }
  std::printf("{\"fingerprints\":{%s},\"large_board\":{%s}}\n", join(kinds).c_str(),
              join(boards).c_str());
}

// --- main -------------------------------------------------------------------

// High-water RSS of this process image. getrusage's ru_maxrss would carry
// the launching process's peak across exec; VmHWM starts fresh.
std::uint64_t peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %" SCNu64, &kb) == 1) break;
  }
  std::fclose(f);
  if (kb == 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kb;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--work-dir") a.work_dir = val;
    else throw std::invalid_argument("unknown flag " + key);
  }
  if (argc % 2 == 0) throw std::invalid_argument("flags come in --key value pairs");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.workload == "refs") {
      print_refs();
      return 0;
    }
    OpSink sink;
    RunRecord rec;
    if (args.workload == "flow_buck") rec = workload_flow_buck(args, sink);
    else if (args.workload == "serve_mixed") rec = workload_serve(args, sink, true);
    else if (args.workload == "serve_mixed_fsync") rec = workload_serve(args, sink, false);
    else if (args.workload == "large_board") rec = workload_large_board(args, sink);
    else throw std::invalid_argument("unknown workload '" + args.workload + "'");

    std::vector<std::string> setup;
    for (const double s : rec.setup_s) setup.push_back(jnum(s));
    std::vector<std::string> fields = {
        "\"workload\":" + jstr(args.workload),
        "\"seed\":" + std::to_string(args.seed),
        "\"pool_lanes\":" + std::to_string(core::ThreadPool::global_thread_count()),
        "\"build_type\":" + jstr(EMIBENCH_BUILD_TYPE),
        "\"cxx_flags\":" + jstr(EMIBENCH_CXX_FLAGS),
        "\"compiler\":" + jstr(EMIBENCH_COMPILER),
        "\"setup_s\":[" + join(setup) + "]",
        "\"measured_s\":" + jnum(rec.measured_s),
        "\"peak_rss_kb\":" + std::to_string(peak_rss_kb()),
    };
    fields.insert(fields.end(), rec.run_fields.begin(), rec.run_fields.end());
    fields.push_back("\"spans\":" + rec.spans);
    std::printf("{%s}\n", join(fields).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "emibench_runner: %s\n", e.what());
    return 1;
  }
}
