// emiplace - command-line front end to the placement tool.
//
// Subcommands:
//   info  <design>                      print design statistics
//   place <design> [-o layout] [--compact] [--refine N] [--seed S]
//                                       run the automatic three-step flow
//   drc   <design> [layout]             check a design (+ saved layout)
//   route <design> <layout>             route nets, print trace table
//   svg   <design> <layout> [board] [-o file]
//                                       render a board to SVG
//   flow  [buck|boost] [--points N] [--adaptive] [--budget-ms MS]
//         [--stage-budget-ms MS] [--checkpoint FILE] [--resume]
//         [--stop-after STAGE] [-o PREFIX]
//                                       run the paper's end-to-end EMI flow
//                                       on a built-in converter
//   serve --socket PATH --state-dir DIR [--executors N] [--queue-capacity N]
//         [--lease-ms MS] [--max-attempts N]
//                                       run the flow as a job-queue daemon
//   submit|status|result|cancel|stats|health|shutdown --socket PATH ...
//                                       client verbs against a running serve;
//                                       submit --retry N backs off politely
//                                       (deterministic seeded jitter) on
//                                       resource_exhausted sheds, honoring
//                                       the server's retry_after_ms hint;
//                                       shutdown --drain finishes in-flight
//                                       jobs and leaves the queue durable
//   version                             print binary + format versions
//
// Global option (any command): --fault-inject <site>:<rate>:<seed>[,...]
// arms the deterministic fault injector, same syntax as EMI_FAULT_INJECT.
//
// The design file format is the ASCII interface documented in
// src/io/design_format.hpp. With no -o, results go to stdout. File outputs
// are written atomically (tmp + rename), so an interrupted run never leaves
// a torn file behind.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/backoff.hpp"
#include "src/core/fault_injection.hpp"
#include "src/core/status.hpp"

#include "src/flow/checkpoint.hpp"
#include "src/flow/design_flow.hpp"
#include "src/io/atomic_writer.hpp"
#include "src/io/design_format.hpp"
#include "src/io/line_record.hpp"
#include "src/io/reports.hpp"
#include "src/io/svg.hpp"
#include "src/peec/sampled_path.hpp"
#include "src/place/compactor.hpp"
#include "src/place/drc.hpp"
#include "src/place/metrics.hpp"
#include "src/place/placer.hpp"
#include "src/place/refine.hpp"
#include "src/place/route.hpp"
#include "src/svc/job.hpp"
#include "src/svc/server.hpp"
#include "src/svc/service.hpp"
#include "tools/cli_args.hpp"

#ifndef EMIPLACE_VERSION
#define EMIPLACE_VERSION "dev"
#endif

namespace {

using namespace emi;

bool parse_board(const std::string& s, int& out) {
  std::uint64_t v = 0;
  if (!io::parse_u64(s, v) || v > 4095) return false;
  out = static_cast<int>(v);
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: emiplace <command> [args]\n"
               "  info  <design>\n"
               "  place <design> [-o layout] [--compact] [--refine N] [--seed S]\n"
               "  drc   <design> [layout]\n"
               "  route <design> <layout>\n"
               "  svg   <design> <layout> [board] [-o file]\n"
               "  flow  [buck|boost] [--points N] [--adaptive] [--budget-ms MS]\n"
               "        [--stage-budget-ms MS] [--checkpoint FILE] [--resume]\n"
               "        [--stop-after STAGE] [-o PREFIX]\n"
               "  serve --socket PATH --state-dir DIR [--executors N]\n"
               "        [--queue-capacity N] [--lease-ms MS] [--max-attempts N]\n"
               "  submit --socket PATH [buck|boost] [--points N] [--adaptive]\n"
               "         [--budget-ms MS] [--stage-budget-ms MS] [--client NAME]\n"
               "         [--stop-after STAGE] [--poison] [--retry N]\n"
               "         [--retry-base-ms MS]\n"
               "  status|result|cancel --socket PATH --job N\n"
               "  stats|health --socket PATH\n"
               "  shutdown --socket PATH [--drain]\n"
               "  version\n"
               "global: --fault-inject <site>:<rate>:<seed>[,...]\n");
  return 2;
}

// Shared parse -> usage-exit mapping: every malformed flag is exit 2 with the
// parser's diagnostic on stderr.
bool parse_or_usage(const cli::FlagSet& flags, int argc, char** argv) {
  const core::Status st = flags.parse(argc, argv);
  if (!st.ok()) std::fprintf(stderr, "%s\n", st.message().c_str());
  return st.ok();
}

// Load a design or exit 1 with the structured parse diagnostic (stage,
// error class and line number) on stderr.
io::LoadedDesign load_or_exit(const std::string& path) {
  core::Result<io::LoadedDesign> r = io::try_load_design_file(path);
  if (!r.ok()) {
    std::fprintf(stderr, "%s\n", r.status().to_string().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

// Load a saved layout of `d` or exit 1 with the structured diagnostic.
place::Layout load_layout_or_exit(const std::string& path, const place::Design& d) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    std::exit(1);
  }
  core::Result<place::Layout> r = io::try_load_layout(in, d);
  if (!r.ok()) {
    std::fprintf(stderr, "%s\n", r.status().to_string().c_str());
    std::exit(1);
  }
  return std::move(r).value();
}

int cmd_info(const std::string& path) {
  const io::LoadedDesign ld = load_or_exit(path);
  const place::Design& d = ld.design;
  std::printf("design: %s\n", path.c_str());
  std::printf("  boards:      %d\n", d.board_count());
  std::printf("  components:  %zu\n", d.components().size());
  std::printf("  nets:        %zu\n", d.nets().size());
  std::printf("  areas:       %zu\n", d.areas().size());
  std::printf("  keepouts:    %zu\n", d.keepouts().size());
  std::printf("  EMD rules:   %zu\n", d.emd_rules().size());
  std::printf("  groups:      %zu\n", d.groups().size());
  std::printf("  clearance:   %.2f mm\n", d.clearance().raw());
  std::size_t preplaced = 0;
  for (const auto& p : ld.layout.placements) preplaced += p.placed ? 1 : 0;
  std::printf("  preplaced:   %zu\n", preplaced);
  return 0;
}

int cmd_version() {
  std::printf("emiplace %s\n", EMIPLACE_VERSION);
  std::printf("checkpoint format: %.*s\n",
              static_cast<int>(flow::kCheckpointMagic.size()),
              flow::kCheckpointMagic.data());
  std::printf("job state format:  %.*s\n", static_cast<int>(svc::kJobMagic.size()),
              svc::kJobMagic.data());
  std::printf("kernel isa clones: %s\n",
              peec::kernel_clones_enabled() ? "default,avx2,avx512f" : "off");
  return 0;
}

int cmd_place(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string design_path = argv[0];
  std::string out_path;
  bool compact = false;
  std::uint64_t refine_iters = 0;
  std::uint64_t seed = 1;
  cli::FlagSet flags;
  flags.add_string("-o", &out_path);
  flags.add_switch("--compact", &compact);
  flags.add_u64("--refine", &refine_iters);
  flags.add_u64("--seed", &seed);
  if (!parse_or_usage(flags, argc - 1, argv + 1)) return usage();

  io::LoadedDesign ld = load_or_exit(design_path);
  const place::PlaceStats stats = place::auto_place(ld.design, ld.layout);
  std::fprintf(stderr, "placed %zu, failed %zu in %.1f ms\n", stats.placed,
               stats.failed, stats.elapsed_seconds * 1e3);
  for (const std::string& f : stats.failed_components) {
    std::fprintf(stderr, "  FAILED: %s\n", f.c_str());
  }
  if (compact) {
    const place::CompactionResult c = place::compact_layout(ld.design, ld.layout);
    std::fprintf(stderr, "compacted: area %.0f -> %.0f mm^2\n", c.area_before_mm2,
                 c.area_after_mm2);
  }
  if (refine_iters > 0) {
    place::RefineOptions ropt;
    ropt.iterations = static_cast<std::size_t>(refine_iters);
    ropt.seed = seed;
    const place::RefineResult r = place::refine_layout(ld.design, ld.layout, ropt);
    std::fprintf(stderr, "refined: cost %.1f -> %.1f\n", r.cost_before, r.cost_after);
  }
  const place::DrcReport rep = place::DrcEngine(ld.design).check(ld.layout);
  std::fprintf(stderr, "DRC: %s (%zu violations)\n",
               rep.clean() ? "CLEAN" : "VIOLATIONS", rep.violations.size());

  if (out_path.empty()) {
    io::save_layout(std::cout, ld.design, ld.layout);
  } else {
    const core::Status st = io::write_file_atomic(
        out_path, [&](std::ostream& o) { io::save_layout(o, ld.design, ld.layout); });
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.to_string().c_str());
      return 1;
    }
    std::fprintf(stderr, "layout written to %s\n", out_path.c_str());
  }
  return stats.failed == 0 && rep.clean() ? 0 : 1;
}

int cmd_drc(int argc, char** argv) {
  if (argc < 1) return usage();
  io::LoadedDesign ld = load_or_exit(argv[0]);
  const place::Layout layout =
      argc >= 2 ? load_layout_or_exit(argv[1], ld.design) : ld.layout;
  const place::DrcReport rep = place::DrcEngine(ld.design).check(layout);
  io::write_drc_report(std::cout, rep);
  return rep.clean() ? 0 : 1;
}

int cmd_route(int argc, char** argv) {
  if (argc < 2) return usage();
  io::LoadedDesign ld = load_or_exit(argv[0]);
  const place::Layout layout = load_layout_or_exit(argv[1], ld.design);
  const auto routed = place::route_nets(ld.design, layout);
  std::printf("net,length_mm,segments\n");
  for (const auto& rn : routed) {
    std::printf("%s,%.1f,%zu\n", rn.net.c_str(), rn.total_length_mm,
                rn.segments.size());
  }
  std::printf("# total %.1f mm\n", place::total_trace_length(routed));
  return 0;
}

int cmd_svg(int argc, char** argv) {
  if (argc < 2) return usage();
  io::LoadedDesign ld = load_or_exit(argv[0]);
  const place::Layout layout = load_layout_or_exit(argv[1], ld.design);
  io::SvgOptions opt;
  std::string out_path;
  cli::FlagSet flags;
  flags.add_string("-o", &out_path);
  flags.positional([&](std::size_t idx, const std::string& v) {
    if (idx > 0 || !parse_board(v, opt.board)) {
      return core::Status(core::ErrorCode::kInvalidArgument, "cli",
                          "invalid board index or option: " + v);
    }
    return core::Status();
  });
  if (!parse_or_usage(flags, argc - 2, argv + 2)) return usage();
  if (out_path.empty()) {
    io::write_layout_svg(std::cout, ld.design, layout, opt);
  } else {
    const core::Status st = io::write_layout_svg_file(out_path, ld.design, layout, opt);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.to_string().c_str());
      return 1;
    }
  }
  return 0;
}

bool valid_topology(const std::string& s) { return s == "buck" || s == "boost"; }

bool valid_stage(const std::string& s) {
  return flow::flow_stage_from_name(s).has_value();
}

int cmd_flow(int argc, char** argv) {
  std::string topology = "buck";
  flow::FlowOptions fopt;
  fopt.sweep.n_points = 60;  // CLI default: quick sweeps
  std::string out_prefix;
  bool resume = false;
  bool adaptive = false;
  cli::FlagSet flags;
  flags.add_size("--points", &fopt.sweep.n_points, 2, 100000);
  flags.add_switch("--adaptive", &adaptive);
  flags.add_ms("--budget-ms", &fopt.total_budget_ms);
  flags.add_ms("--stage-budget-ms", &fopt.stage_budget_ms);
  flags.add_string("--checkpoint", &fopt.checkpoint_path);
  flags.add_switch("--resume", &resume);
  flags.add_checked("--stop-after", &fopt.stop_after_stage, valid_stage,
                    "--stop-after stage");
  flags.add_string("-o", &out_prefix);
  flags.positional([&](std::size_t idx, const std::string& v) {
    if (idx > 0 || !valid_topology(v)) {
      return core::Status(core::ErrorCode::kInvalidArgument, "cli",
                          "unknown topology: " + v);
    }
    topology = v;
    return core::Status();
  });
  if (!parse_or_usage(flags, argc, argv)) return usage();
  if (resume && fopt.checkpoint_path.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint\n");
    return usage();
  }
  if (adaptive) {
    // Both sweep-acceleration engines at default tolerances; defaults stay
    // exact so unflagged runs remain bit-identical to older builds.
    fopt.sweep_accel.adaptive = true;
    fopt.sweep_accel.surrogate = true;
  }

  flow::BuckConverter bc =
      topology == "buck" ? flow::make_buck_converter() : flow::make_boost_converter();
  const place::Layout initial = topology == "buck"
                                    ? flow::layout_unfavorable(bc)
                                    : flow::boost_layout_unfavorable(bc);
  const flow::FlowResult res = resume ? flow::resume_design_flow(bc, initial, fopt)
                                      : flow::run_design_flow(bc, initial, fopt);

  std::fprintf(stderr, "flow(%s): %zu pairs ranked, %zu simulated, %zu solves saved\n",
               topology.c_str(), res.ranking.size(), res.simulated_pairs.size(),
               res.field_solves_saved);
  for (const flow::StageDiagnostic& d : res.diagnostics) {
    std::fprintf(stderr, "  [%s] attempts=%d %s: %s\n",
                 d.recovered ? "recovered" : "failed", d.attempts, d.stage.c_str(),
                 d.status.to_string().c_str());
  }
  std::fprintf(stderr, "complete: %s  rules: %zu  peak improvement: %.2f dB\n",
               res.complete ? "yes" : "no", res.rules.size(),
               res.peak_improvement_db);

  if (!out_prefix.empty()) {
    // The improved spectrum/layout only exist for a completed flow; a partial
    // run (expired budget, --stop-after) still gets the initial prediction.
    std::vector<std::pair<std::string, core::Status>> outs;
    outs.emplace_back(out_prefix + "_initial.csv",
                      io::write_spectrum_csv_file(out_prefix + "_initial.csv",
                                                  res.initial_prediction,
                                                  fopt.cispr_class));
    if (res.complete) {
      outs.emplace_back(out_prefix + "_improved.csv",
                        io::write_spectrum_csv_file(out_prefix + "_improved.csv",
                                                    res.improved_prediction,
                                                    fopt.cispr_class));
      outs.emplace_back(out_prefix + "_layout.csv",
                        io::write_layout_table_file(out_prefix + "_layout.csv",
                                                    bc.board, res.improved_layout));
    }
    for (const auto& o : outs) {
      if (!o.second.ok()) {
        std::fprintf(stderr, "%s\n", o.second.to_string().c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote %s\n", o.first.c_str());
    }
  }
  return res.complete ? 0 : 1;
}

// --- serve daemon ----------------------------------------------------------

svc::SocketServer* g_server = nullptr;

void handle_signal(int) {
  if (g_server != nullptr) g_server->stop();  // atomic store: signal-safe
}

int cmd_serve(int argc, char** argv) {
  std::string socket_path;
  std::string state_dir;
  svc::ServiceOptions sopt;
  cli::FlagSet flags;
  flags.add_string("--socket", &socket_path);
  flags.add_string("--state-dir", &state_dir);
  std::uint64_t max_attempts = 0;
  flags.add_size("--executors", &sopt.executors, 1, 64);
  flags.add_size("--queue-capacity", &sopt.queue_capacity, 1, 65536);
  flags.add_ms("--lease-ms", &sopt.lease_ms);
  flags.add_u64("--max-attempts", &max_attempts, 1, 1000);
  if (!parse_or_usage(flags, argc, argv)) return usage();
  if (socket_path.empty() || state_dir.empty()) {
    std::fprintf(stderr, "serve requires --socket and --state-dir\n");
    return usage();
  }
  if (max_attempts != 0) sopt.max_attempts = static_cast<std::uint32_t>(max_attempts);
  sopt.state_dir = state_dir;

  try {
    svc::Service service(sopt);
    svc::SocketServer server(service, socket_path);
    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    std::fprintf(stderr, "emiplace serve: socket %s, state %s, %zu executor(s)\n",
                 socket_path.c_str(), state_dir.c_str(), sopt.executors);
    const core::Status st = server.serve();
    g_server = nullptr;
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.to_string().c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}

// --- client verbs -----------------------------------------------------------

// One request line against a running serve: connect, send, print the single
// reply line. Exit 0 on an OK reply, 1 on ERR or a connection failure. When
// `reply_out` is set, the reply line (without newline) is also stored there
// so callers (submit --retry) can inspect error codes and hints.
int client_roundtrip(const std::string& socket_path, const std::string& line,
                     std::string* reply_out = nullptr) {
  sockaddr_un addr{};
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "invalid --socket path: %s\n", socket_path.c_str());
    return usage();
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "socket: %s\n", std::strerror(errno));
    return 1;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    std::fprintf(stderr, "connect %s: %s\n", socket_path.c_str(),
                 std::strerror(errno));
    ::close(fd);
    return 1;
  }
  const std::string req = line + "\n";
  std::size_t off = 0;
  while (off < req.size()) {
    const ssize_t n = ::send(fd, req.data() + off, req.size() - off, 0);
    if (n <= 0) {
      std::fprintf(stderr, "send: %s\n", std::strerror(errno));
      ::close(fd);
      return 1;
    }
    off += static_cast<std::size_t>(n);
  }
  std::string reply;
  char buf[4096];
  while (reply.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  const std::size_t nl = reply.find('\n');
  if (nl == std::string::npos) {
    std::fprintf(stderr, "connection closed before reply\n");
    return 1;
  }
  reply.resize(nl);
  std::printf("%s\n", reply.c_str());
  if (reply_out != nullptr) *reply_out = reply;
  return reply.rfind("OK", 0) == 0 ? 0 : 1;
}

int cmd_submit(int argc, char** argv) {
  std::string socket_path;
  std::string topology = "buck";
  std::string client;
  std::string stop_after;
  std::uint64_t points = 0;
  std::int64_t budget_ms = -1;
  std::int64_t stage_budget_ms = -1;
  std::uint64_t retries = 0;
  std::int64_t retry_base_ms = 100;
  bool poison = false;
  bool adaptive = false;
  cli::FlagSet flags;
  flags.add_string("--socket", &socket_path);
  flags.add_u64("--points", &points, 2, 100000);
  flags.add_switch("--adaptive", &adaptive);
  flags.add_ms("--budget-ms", &budget_ms);
  flags.add_ms("--stage-budget-ms", &stage_budget_ms);
  flags.add_string("--client", &client);
  flags.add_checked("--stop-after", &stop_after, valid_stage, "--stop-after stage");
  flags.add_switch("--poison", &poison);
  flags.add_u64("--retry", &retries, 0, 100);
  flags.add_ms("--retry-base-ms", &retry_base_ms);
  flags.positional([&](std::size_t idx, const std::string& v) {
    if (idx > 0 || !valid_topology(v)) {
      return core::Status(core::ErrorCode::kInvalidArgument, "cli",
                          "unknown topology: " + v);
    }
    topology = v;
    return core::Status();
  });
  if (!parse_or_usage(flags, argc, argv)) return usage();
  if (socket_path.empty()) {
    std::fprintf(stderr, "submit requires --socket\n");
    return usage();
  }
  std::string line = "SUBMIT topology=" + topology;
  if (points != 0) line += " points=" + std::to_string(points);
  if (budget_ms >= 0) line += " budget_ms=" + std::to_string(budget_ms);
  if (stage_budget_ms >= 0) {
    line += " stage_budget_ms=" + std::to_string(stage_budget_ms);
  }
  if (!client.empty()) line += " client=" + client;
  if (adaptive) line += " adaptive=1";
  if (!stop_after.empty()) line += " stop_after=" + stop_after;
  if (poison) line += " poison=1";

  // Polite retry against overload sheds only: other errors (validation,
  // io) are not transient and fail immediately. The wait before retry k is
  // max(server hint, deterministic seeded backoff) - the hint spaces the
  // herd by load, the seed (from the request bytes) de-synchronizes clients
  // that submitted identical lines, and det_lint-visible randomness is
  // never involved.
  const core::Backoff backoff({retry_base_ms, retry_base_ms * 16, 2.0, 0.5},
                              core::fault::fnv64(line));
  for (std::uint64_t attempt = 0;; ++attempt) {
    std::string reply;
    const int rc = client_roundtrip(socket_path, line, &reply);
    if (rc == 0 || attempt >= retries ||
        reply.find("code=resource_exhausted") == std::string::npos) {
      return rc;
    }
    std::uint64_t hint_ms = 0;
    if (const auto v = io::kv_value(io::split_tokens(reply), "retry_after_ms")) {
      (void)io::parse_u64(*v, hint_ms);  // malformed: no hint, like an absent one
    }
    const std::int64_t wait_ms =
        std::max<std::int64_t>(static_cast<std::int64_t>(hint_ms),
                               backoff.delay_ms(static_cast<int>(attempt)));
    std::fprintf(stderr, "shed; retrying in %lld ms (attempt %llu of %llu)\n",
                 static_cast<long long>(wait_ms),
                 static_cast<unsigned long long>(attempt + 1),
                 static_cast<unsigned long long>(retries));
    std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
  }
}

// status/result/cancel share the same `--socket S --job N` shape.
int cmd_job_verb(const char* verb, int argc, char** argv) {
  std::string socket_path;
  std::uint64_t job = 0;
  cli::FlagSet flags;
  flags.add_string("--socket", &socket_path);
  flags.add_u64("--job", &job);
  if (!parse_or_usage(flags, argc, argv)) return usage();
  bool have_job = false;
  for (int i = 0; i < argc; ++i) have_job |= !std::strcmp(argv[i], "--job");
  if (socket_path.empty() || !have_job) {
    std::fprintf(stderr, "%s requires --socket and --job\n", verb);
    return usage();
  }
  return client_roundtrip(socket_path,
                          std::string(verb) + " job=" + std::to_string(job));
}

int cmd_plain_verb(const char* verb, int argc, char** argv) {
  std::string socket_path;
  cli::FlagSet flags;
  flags.add_string("--socket", &socket_path);
  if (!parse_or_usage(flags, argc, argv)) return usage();
  if (socket_path.empty()) {
    std::fprintf(stderr, "%s requires --socket\n", verb);
    return usage();
  }
  return client_roundtrip(socket_path, verb);
}

int cmd_shutdown(int argc, char** argv) {
  std::string socket_path;
  bool drain = false;
  cli::FlagSet flags;
  flags.add_string("--socket", &socket_path);
  flags.add_switch("--drain", &drain);
  if (!parse_or_usage(flags, argc, argv)) return usage();
  if (socket_path.empty()) {
    std::fprintf(stderr, "shutdown requires --socket\n");
    return usage();
  }
  return client_roundtrip(socket_path, drain ? "SHUTDOWN DRAIN" : "SHUTDOWN");
}

}  // namespace

int main(int argc, char** argv) {
  // Global --fault-inject: same spec syntax as EMI_FAULT_INJECT, validated
  // strictly - a malformed spec (any entry of a multi-entry list) is a usage
  // error, not a silently disarmed injector.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--fault-inject")) {
      if (i + 1 >= argc ||
          !core::FaultInjector::instance().configure_from_spec(argv[i + 1])) {
        std::fprintf(stderr, "invalid --fault-inject spec: %s\n",
                     i + 1 < argc ? argv[i + 1] : "(missing)");
        return usage();
      }
      ++i;
    } else {
      args.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(args.size());
  argv = args.data();
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "info" && argc >= 3) return cmd_info(argv[2]);
    if (cmd == "place") return cmd_place(argc - 2, argv + 2);
    if (cmd == "drc") return cmd_drc(argc - 2, argv + 2);
    if (cmd == "route") return cmd_route(argc - 2, argv + 2);
    if (cmd == "svg") return cmd_svg(argc - 2, argv + 2);
    if (cmd == "flow") return cmd_flow(argc - 2, argv + 2);
    if (cmd == "serve") return cmd_serve(argc - 2, argv + 2);
    if (cmd == "submit") return cmd_submit(argc - 2, argv + 2);
    if (cmd == "status") return cmd_job_verb("STATUS", argc - 2, argv + 2);
    if (cmd == "result") return cmd_job_verb("RESULT", argc - 2, argv + 2);
    if (cmd == "cancel") return cmd_job_verb("CANCEL", argc - 2, argv + 2);
    if (cmd == "stats") return cmd_plain_verb("STATS", argc - 2, argv + 2);
    if (cmd == "health") return cmd_plain_verb("HEALTH", argc - 2, argv + 2);
    if (cmd == "shutdown") return cmd_shutdown(argc - 2, argv + 2);
    if (cmd == "version") return cmd_version();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
