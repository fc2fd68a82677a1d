// `emiplace serve`: a line-oriented protocol over a Unix domain socket in
// front of svc::Service. One request line in, one reply line out:
//
//   PING                                          -> OK pong
//   SUBMIT topology=buck [points=N] [budget_ms=N] [stage_budget_ms=N]
//          [client=NAME] [stop_after=STAGE]       -> OK id=N
//   STATUS job=N                                  -> OK id=N state=... ...
//   RESULT job=N      (blocks until terminal)     -> OK id=N state=... ...
//   CANCEL job=N                                  -> OK id=N cancelled
//   STATS                                         -> OK submitted=... ...
//   HEALTH                                        -> OK queue_depth=... ...
//   SHUTDOWN                                      -> OK shutting_down
//   SHUTDOWN DRAIN                                -> OK draining
//
// Errors come back as `ERR code=<error-code-name> msg=<text>`; an unknown
// verb or malformed field is code=invalid_argument. An overload shed is
// code=resource_exhausted and its msg carries a ` retry_after_ms=<N>`
// token - the wire-protocol RETRY-AFTER hint that `emiplace submit --retry`
// honors. Replies are single lines, so `socat - UNIX-CONNECT:<sock>` is a
// complete interactive client.
//
// The server is a single poll() loop: many concurrent clients, no thread
// per connection. RESULT does not stall the loop - the connection is parked
// on a waiter list and answered when the job reaches a terminal state;
// execution itself happens on the service's executor threads.
//
// The loop is event-driven: poll() has no timeout. Besides the listen
// socket and the connections it watches two self-pipes - the service's
// terminal_fd(), written on every job transition that can answer a parked
// RESULT or end a drain, and the server's own, written by stop() - so a
// RESULT is answered the moment its job lands, and an idle server does no
// work at all.
//
// SHUTDOWN DRAIN stops admissions immediately (further SUBMITs get
// code=failed_precondition) but keeps the loop serving STATUS/HEALTH/STATS
// until every in-flight job lands; queued jobs stay durable on disk for the
// next start. On any exit, parked RESULT waiters are flushed with their
// job's current (possibly non-terminal) record instead of a silent close.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "src/core/status.hpp"
#include "src/svc/service.hpp"

namespace emi::svc {

// Outcome of one protocol line. Pure function of (service state, line) -
// unit-testable without a socket. `deferred` marks a RESULT on a
// non-terminal job: no reply yet, answer when `wait_job` finishes.
struct CommandOutcome {
  std::string reply;
  bool deferred = false;
  std::uint64_t wait_job = 0;
  bool shutdown = false;
  // SHUTDOWN DRAIN: Service::begin_drain() was called; the poll loop keeps
  // serving until svc.drain_complete(), then exits.
  bool drain = false;
};

CommandOutcome handle_command(Service& svc, const std::string& line);

// Single reply line for a job record ("OK id=... state=... ...").
std::string format_job_reply(const JobRecord& rec);

class SocketServer {
 public:
  // Binds lazily in serve(); `socket_path` must fit sockaddr_un (~107
  // bytes) - keep serve sockets in short paths (/tmp). Throws
  // std::runtime_error when the wake-up pipe cannot be created.
  SocketServer(Service& svc, std::string socket_path);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  // Bind + listen + poll loop. Returns kOk after a clean SHUTDOWN / stop(),
  // kIoError if the socket cannot be created. The socket file is unlinked
  // on exit.
  [[nodiscard]] core::Status serve();

  // Ask a serve() running on another thread to exit: sets the flag and
  // wakes the poll loop through the server's self-pipe. Async-signal-safe
  // (an atomic store and one write(2)), so a SIGINT/SIGTERM handler may
  // call it.
  void stop();

  const std::string& socket_path() const { return socket_path_; }

 private:
  Service& svc_;
  std::string socket_path_;
  std::atomic<bool> stop_{false};
  SelfPipe wake_;  // stop()'s wake-up
};

}  // namespace emi::svc
