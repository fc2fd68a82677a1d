#include "src/svc/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

#include "src/io/line_record.hpp"
#include "src/io/wire.hpp"

namespace emi::svc {

namespace {

std::string err_reply(const core::Status& st) {
  return std::string("ERR code=") + core::error_code_name(st.code()) +
         " msg=" + io::one_line(st.message());
}

std::string err_reply(core::ErrorCode code, const std::string& msg) {
  return err_reply(core::Status(code, "svc.server", msg));
}

// Reads every byte waiting on the non-blocking pipe `fd`.
void drain_fd(int fd) {
  char buf[64];
  while (::read(fd, buf, sizeof buf) > 0) {
  }
}

// job=N field shared by STATUS / RESULT / CANCEL.
bool parse_job_id(const std::vector<std::string>& tokens, std::uint64_t& id,
                  std::string& err) {
  const std::optional<std::string> v = io::kv_value(tokens, "job");
  if (!v || !io::parse_u64(*v, id)) {
    err = err_reply(core::ErrorCode::kInvalidArgument,
                    "expected job=<id>");
    return false;
  }
  return true;
}

}  // namespace

std::string format_job_reply(const JobRecord& rec) {
  std::string out = "OK id=" + std::to_string(rec.id);
  out += " state=";
  out += job_state_name(rec.state);
  out += " complete=";
  out += rec.complete ? '1' : '0';
  out += " fingerprint=" + io::hex64(rec.fingerprint);
  out += " topology=" + rec.spec.topology;
  out += " client=" + (rec.spec.client.empty() ? std::string("-") : rec.spec.client);
  if (!rec.detail.empty()) out += " detail=" + io::one_line(rec.detail);
  return out;
}

CommandOutcome handle_command(Service& svc, const std::string& line) {
  CommandOutcome out;
  const std::vector<std::string> tokens = io::split_tokens(line);
  if (tokens.empty()) {
    out.reply = err_reply(core::ErrorCode::kInvalidArgument, "empty command");
    return out;
  }
  const std::string& verb = tokens[0];

  if (verb == "PING") {
    out.reply = "OK pong";
    return out;
  }

  if (verb == "SUBMIT") {
    JobSpec spec;
    if (const auto v = io::kv_value(tokens, "topology")) spec.topology = *v;
    if (const auto v = io::kv_value(tokens, "client")) spec.client = *v;
    if (const auto v = io::kv_value(tokens, "stop_after")) spec.stop_after_stage = *v;
    if (const auto v = io::kv_value(tokens, "poison")) {
      if (*v != "0" && *v != "1") {
        out.reply = err_reply(core::ErrorCode::kInvalidArgument,
                              "malformed poison value: " + *v);
        return out;
      }
      spec.poison = *v == "1";
    }
    if (const auto v = io::kv_value(tokens, "adaptive")) {
      if (*v != "0" && *v != "1") {
        out.reply = err_reply(core::ErrorCode::kInvalidArgument,
                              "malformed adaptive value: " + *v);
        return out;
      }
      spec.adaptive_sweep = *v == "1";
    }
    std::uint64_t n = 0;
    if (const auto v = io::kv_value(tokens, "points")) {
      if (!io::parse_u64(*v, n)) {
        out.reply = err_reply(core::ErrorCode::kInvalidArgument,
                              "malformed points value: " + *v);
        return out;
      }
      spec.sweep_points = static_cast<std::size_t>(n);
    }
    if (const auto v = io::kv_value(tokens, "budget_ms")) {
      if (!io::parse_u64(*v, n)) {
        out.reply = err_reply(core::ErrorCode::kInvalidArgument,
                              "malformed budget_ms value: " + *v);
        return out;
      }
      spec.total_budget_ms = static_cast<std::int64_t>(n);
    }
    if (const auto v = io::kv_value(tokens, "stage_budget_ms")) {
      if (!io::parse_u64(*v, n)) {
        out.reply = err_reply(core::ErrorCode::kInvalidArgument,
                              "malformed stage_budget_ms value: " + *v);
        return out;
      }
      spec.stage_budget_ms = static_cast<std::int64_t>(n);
    }
    core::Result<std::uint64_t> id = svc.submit(spec);
    out.reply = id.ok() ? "OK id=" + std::to_string(id.value())
                        : err_reply(id.status());
    return out;
  }

  if (verb == "STATUS" || verb == "RESULT" || verb == "CANCEL") {
    std::uint64_t id = 0;
    if (!parse_job_id(tokens, id, out.reply)) return out;
    if (verb == "CANCEL") {
      const core::Status st = svc.cancel(id);
      out.reply = st.ok() ? "OK id=" + std::to_string(id) + " cancelled"
                          : err_reply(st);
      return out;
    }
    const core::Result<JobRecord> rec = svc.status(id);
    if (!rec.ok()) {
      out.reply = err_reply(rec.status());
      return out;
    }
    if (verb == "RESULT" && !job_state_terminal(rec.value().state)) {
      out.deferred = true;
      out.wait_job = id;
      return out;
    }
    out.reply = format_job_reply(rec.value());
    return out;
  }

  if (verb == "STATS") {
    const ServiceStats s = svc.stats();
    out.reply = "OK submitted=" + std::to_string(s.submitted) +
                " recovered=" + std::to_string(s.recovered) +
                " queued=" + std::to_string(s.queued) +
                " running=" + std::to_string(s.running) +
                " done=" + std::to_string(s.done) +
                " failed=" + std::to_string(s.failed) +
                " cancelled=" + std::to_string(s.cancelled) +
                " stalled=" + std::to_string(s.stalled) +
                " quarantined=" + std::to_string(s.quarantined) +
                " sessions=" + std::to_string(s.sessions) +
                " cache_self_hits=" + std::to_string(s.global_cache.self_hits) +
                " cache_self_misses=" + std::to_string(s.global_cache.self_misses) +
                " cache_mutual_hits=" + std::to_string(s.global_cache.mutual_hits) +
                " cache_mutual_misses=" +
                std::to_string(s.global_cache.mutual_misses);
    char resid[32];
    std::snprintf(resid, sizeof resid, "%.3f", s.sweep_max_residual_db);
    out.reply += " sweep_full_solves=" + std::to_string(s.sweep_full_solves) +
                 " sweep_interp_points=" + std::to_string(s.sweep_interp_points) +
                 " sweep_surrogate_evals=" + std::to_string(s.sweep_surrogate_evals) +
                 " sweep_escalations=" + std::to_string(s.sweep_escalations) +
                 " sweep_max_residual_db=" + resid;
    return out;
  }

  if (verb == "HEALTH") {
    const ServiceHealth h = svc.health();
    char ewma[32];
    std::snprintf(ewma, sizeof ewma, "%.3f", h.ewma_job_ms);
    out.reply = "OK queue_depth=" + std::to_string(h.queue_depth) +
                " queue_capacity=" + std::to_string(h.queue_capacity) +
                " executors=" + std::to_string(h.executors) +
                " running=" + std::to_string(h.running) +
                " stalled=" + std::to_string(h.stalled) +
                " stall_events=" + std::to_string(h.stall_events) +
                " shed=" + std::to_string(h.shed) +
                " quarantined=" + std::to_string(h.quarantined) +
                " ewma_job_ms=" + ewma +
                " retry_after_ms=" + std::to_string(h.retry_after_ms) +
                " draining=" + (h.draining ? "1" : "0");
    return out;
  }

  if (verb == "SHUTDOWN") {
    if (tokens.size() > 1 && tokens[1] == "DRAIN") {
      svc.begin_drain();
      out.reply = "OK draining";
      out.drain = true;
      return out;
    }
    out.reply = "OK shutting_down";
    out.shutdown = true;
    return out;
  }

  out.reply = err_reply(core::ErrorCode::kInvalidArgument, "unknown verb: " + verb);
  return out;
}

SocketServer::SocketServer(Service& svc, std::string socket_path)
    : svc_(svc), socket_path_(std::move(socket_path)) {}

SocketServer::~SocketServer() { ::unlink(socket_path_.c_str()); }

void SocketServer::stop() {
  stop_.store(true);
  wake_.signal();
}

core::Status SocketServer::serve() {
  sockaddr_un addr{};
  if (socket_path_.size() >= sizeof(addr.sun_path)) {
    return core::Status(core::ErrorCode::kInvalidArgument, "svc.server",
                        "socket path too long: " + socket_path_);
  }
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    return core::Status(core::ErrorCode::kIoError, "svc.server",
                        std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(socket_path_.c_str());  // stale socket from a killed server
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listen_fd, 64) < 0) {
    const std::string what = std::strerror(errno);
    ::close(listen_fd);
    return core::Status(core::ErrorCode::kIoError, "svc.server",
                        "bind/listen " + socket_path_ + ": " + what);
  }

  struct Conn {
    io::LineFramer framer;
    std::uint64_t wait_job = 0;  // nonzero: parked on RESULT
    bool waiting = false;
    bool dead = false;  // closed at the end of this pass
  };
  std::map<int, Conn> conns;
  bool shutdown = false;
  bool draining = false;

  const auto send_line = [](int fd, const std::string& reply) {
    std::string buf = reply + "\n";
    std::size_t off = 0;
    while (off < buf.size()) {
      const ssize_t n = ::send(fd, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  };

  // Answer the complete lines `c` holds until one parks it on RESULT: no
  // further commands from it until that reply goes out.
  const auto serve_lines = [&](int fd, Conn& c) {
    while (!c.waiting) {
      const std::optional<std::string> line = c.framer.next_line();
      if (!line) return;
      const CommandOutcome outcome = handle_command(svc_, *line);
      if (outcome.deferred) {
        c.waiting = true;
        c.wait_job = outcome.wait_job;
        return;
      }
      if (!send_line(fd, outcome.reply)) {
        c.dead = true;
        return;
      }
      if (outcome.shutdown) {
        shutdown = true;
        return;
      }
      if (outcome.drain) draining = true;
    }
  };

  // Slots 0-2 of the poll set; the connections follow.
  constexpr std::size_t kFixedFds = 3;
  while (!shutdown && !stop_.load()) {
    std::vector<pollfd> fds;
    fds.push_back({listen_fd, POLLIN, 0});
    fds.push_back({wake_.read_fd(), POLLIN, 0});
    fds.push_back({svc_.terminal_fd(), POLLIN, 0});
    for (const auto& [fd, c] : conns) {
      fds.push_back({fd, static_cast<short>(c.waiting ? 0 : POLLIN), 0});
    }
    // No timeout: everything the loop acts on arrives on a descriptor - a
    // connection, a client's bytes, stop() and every job transition that
    // can answer a parked RESULT or end a drain.
    if (::poll(fds.data(), fds.size(), -1) < 0 && errno != EINTR) break;
    // Empty both pipes before the waiter scan below reads job state: a
    // transition after this point leaves a byte behind for the next poll.
    for (std::size_t i = 1; i < kFixedFds; ++i) {
      if (fds[i].revents & POLLIN) drain_fd(fds[i].fd);
    }

    if (fds[0].revents & POLLIN) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd >= 0) conns[fd];  // default-construct a fresh framer
    }

    for (std::size_t i = kFixedFds; i < fds.size(); ++i) {
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const int fd = fds[i].fd;
      Conn& c = conns[fd];
      char buf[4096];
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) {
        c.dead = true;
        continue;
      }
      if (!c.framer.feed({buf, static_cast<std::size_t>(n)}).ok()) {
        send_line(fd, err_reply(core::ErrorCode::kInvalidArgument,
                                "line too long"));
        c.dead = true;
        continue;
      }
      serve_lines(fd, c);
    }

    // Answer parked RESULT waiters whose job reached a terminal state, then
    // the lines their clients sent behind the RESULT.
    for (auto& [fd, c] : conns) {
      if (!c.waiting || c.dead) continue;
      const core::Result<JobRecord> rec = svc_.status(c.wait_job);
      if (rec.ok() && !job_state_terminal(rec.value().state)) continue;
      c.waiting = false;
      const std::string reply =
          rec.ok() ? format_job_reply(rec.value()) : err_reply(rec.status());
      if (send_line(fd, reply)) {
        serve_lines(fd, c);
      } else {
        c.dead = true;
      }
    }

    for (auto it = conns.begin(); it != conns.end();) {
      if (!it->second.dead) {
        ++it;
        continue;
      }
      ::close(it->first);
      it = conns.erase(it);
    }

    // Draining: keep answering STATUS/HEALTH/RESULT until the last
    // in-flight job lands (its transition wakes the poll above), then leave
    // the loop like a SHUTDOWN.
    if (draining && svc_.drain_complete()) shutdown = true;
  }

  // Flush parked RESULT waiters with their job's current record (possibly
  // non-terminal) so a drain/shutdown never silently drops a blocked
  // client mid-wait.
  for (auto& [fd, c] : conns) {
    if (!c.waiting) continue;
    const core::Result<JobRecord> rec = svc_.status(c.wait_job);
    const std::string reply =
        rec.ok() ? format_job_reply(rec.value()) : err_reply(rec.status());
    (void)send_line(fd, reply);  // peer may already be gone; close follows
  }

  for (const auto& [fd, c] : conns) ::close(fd);
  ::close(listen_fd);
  ::unlink(socket_path_.c_str());
  return core::Status();
}

}  // namespace emi::svc
