// The serve protocol layer: handle_command as a pure function of (service
// state, line) - every verb, every malformed-field rejection, the deferred
// RESULT contract - plus one end-to-end pass over a real Unix socket
// (connect, SUBMIT, blocking RESULT, STATS, SHUTDOWN) driving the poll loop.
#include "src/svc/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/svc/service.hpp"

namespace emi::svc {
namespace {

std::string fresh_dir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(HandleCommand, PingAndUnknownVerbs) {
  Service svc({fresh_dir("srv_ping"), 1, 8});
  EXPECT_EQ(handle_command(svc, "PING").reply, "OK pong");
  EXPECT_EQ(handle_command(svc, "  PING  ").reply, "OK pong");

  const CommandOutcome bad = handle_command(svc, "FROBNICATE x=1");
  EXPECT_EQ(bad.reply.rfind("ERR code=invalid_argument", 0), 0u) << bad.reply;
  EXPECT_EQ(handle_command(svc, "").reply.rfind("ERR code=invalid_argument", 0),
            0u);
}

TEST(HandleCommand, SubmitStatusLifecycle) {
  Service svc({fresh_dir("srv_lifecycle"), 1, 8});
  const CommandOutcome sub =
      handle_command(svc, "SUBMIT topology=buck points=30 client=alice");
  ASSERT_EQ(sub.reply, "OK id=1");

  (void)svc.wait(1);
  const CommandOutcome st = handle_command(svc, "STATUS job=1");
  EXPECT_EQ(st.reply.rfind("OK id=1 state=done complete=1 fingerprint=", 0), 0u)
      << st.reply;
  EXPECT_NE(st.reply.find(" topology=buck"), std::string::npos);
  EXPECT_NE(st.reply.find(" client=alice"), std::string::npos);

  // RESULT on a terminal job answers immediately, identically to STATUS.
  const CommandOutcome res = handle_command(svc, "RESULT job=1");
  EXPECT_FALSE(res.deferred);
  EXPECT_EQ(res.reply, st.reply);
}

TEST(HandleCommand, MalformedFieldsAreInvalidArgument) {
  Service svc({fresh_dir("srv_malformed"), 1, 8});
  const char* bad_lines[] = {
      "SUBMIT topology=teapot",          // unknown topology (spec validation)
      "SUBMIT topology=buck points=1",   // out-of-range points
      "SUBMIT topology=buck points=abc", // malformed number
      "SUBMIT topology=buck points=+60", // signed number
      "SUBMIT topology=buck budget_ms=+5",
      "SUBMIT topology=buck budget_ms=-5",
      "SUBMIT topology=buck stage_budget_ms=1x",
      "SUBMIT topology=buck stop_after=frobnication",
      "STATUS job=abc",
      "STATUS",
      "CANCEL job=",
  };
  for (const char* line : bad_lines) {
    EXPECT_EQ(handle_command(svc, line).reply.rfind("ERR code=invalid_argument", 0),
              0u)
        << line;
  }
  // Unknown-but-well-formed ids are invalid_argument, too.
  EXPECT_EQ(handle_command(svc, "STATUS job=99").reply.rfind(
                "ERR code=invalid_argument", 0),
            0u);
  EXPECT_EQ(svc.stats().submitted, 0u);
}

// Job ids are bare decimal digits: `job=+1` is malformed even while job 1
// exists.
TEST(HandleCommand, SignedJobIdIsInvalidArgument) {
  Service svc({fresh_dir("srv_signed_id"), 1, 8});
  ASSERT_EQ(handle_command(svc, "SUBMIT topology=buck points=30").reply, "OK id=1");
  (void)svc.wait(1);
  for (const char* line : {"STATUS job=+1", "RESULT job=+1", "CANCEL job=+1"}) {
    EXPECT_EQ(handle_command(svc, line).reply.rfind("ERR code=invalid_argument", 0),
              0u)
        << line;
  }
}

TEST(HandleCommand, ResultOnNonTerminalJobDefers) {
  Service svc({fresh_dir("srv_defer"), 1, 8});
  // A crash-simmed job is deterministically non-terminal: the executor
  // halted with disk still saying `running`.
  JobSpec spec;
  spec.sweep_points = 30;
  spec.stop_after_stage = "sensitivity";
  const auto id = svc.submit(spec);
  ASSERT_TRUE(id.ok());
  (void)svc.wait(id.value());  // unblocks on the crash-sim halt

  const CommandOutcome res =
      handle_command(svc, "RESULT job=" + std::to_string(id.value()));
  EXPECT_TRUE(res.deferred);
  EXPECT_EQ(res.wait_job, id.value());
  EXPECT_TRUE(res.reply.empty());
  // STATUS on the same job answers immediately with the live state.
  const CommandOutcome st =
      handle_command(svc, "STATUS job=" + std::to_string(id.value()));
  EXPECT_FALSE(st.deferred);
  EXPECT_NE(st.reply.find("state=running"), std::string::npos);
}

TEST(HandleCommand, CancelStatsShutdown) {
  Service svc({fresh_dir("srv_misc"), 2, 8});
  JobSpec spec;
  spec.sweep_points = 30;
  const auto id = svc.submit(spec);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(handle_command(svc, "CANCEL job=1").reply, "OK id=1 cancelled");
  (void)svc.wait(1);

  const CommandOutcome stats = handle_command(svc, "STATS");
  EXPECT_EQ(stats.reply.rfind("OK submitted=1 recovered=0", 0), 0u)
      << stats.reply;
  EXPECT_NE(stats.reply.find(" cache_self_hits="), std::string::npos);
  EXPECT_NE(stats.reply.find(" cache_mutual_misses="), std::string::npos);

  const CommandOutcome sd = handle_command(svc, "SHUTDOWN");
  EXPECT_EQ(sd.reply, "OK shutting_down");
  EXPECT_TRUE(sd.shutdown);
}

TEST(HandleCommand, HealthAndShutdownDrain) {
  Service svc({fresh_dir("srv_health"), 2, 8});
  const CommandOutcome h = handle_command(svc, "HEALTH");
  EXPECT_EQ(h.reply.rfind("OK queue_depth=0 queue_capacity=8 executors=2", 0), 0u)
      << h.reply;
  for (const char* field :
       {" running=", " stalled=", " stall_events=", " shed=", " quarantined=",
        " ewma_job_ms=", " retry_after_ms=", " draining=0"}) {
    EXPECT_NE(h.reply.find(field), std::string::npos) << field << " missing: "
                                                      << h.reply;
  }

  const CommandOutcome drain = handle_command(svc, "SHUTDOWN DRAIN");
  EXPECT_EQ(drain.reply, "OK draining");
  EXPECT_TRUE(drain.drain);
  EXPECT_FALSE(drain.shutdown);  // the loop exits once in-flight work lands
  EXPECT_TRUE(svc.draining());
  EXPECT_NE(handle_command(svc, "HEALTH").reply.find(" draining=1"),
            std::string::npos);
  // Control plane stays live while draining; new submissions are refused.
  EXPECT_EQ(handle_command(svc, "PING").reply, "OK pong");
  EXPECT_EQ(handle_command(svc, "SUBMIT topology=buck points=30")
                .reply.rfind("ERR code=failed_precondition", 0),
            0u);
}

TEST(HandleCommand, SubmitPoisonField) {
  Service svc({fresh_dir("srv_poison"), 1, 8});
  // Well-formed poison spec is accepted (tests-only crash-loop modeling).
  EXPECT_EQ(handle_command(
                svc, "SUBMIT topology=buck points=30 stop_after=sensitivity poison=1")
                .reply,
            "OK id=1");
  // Malformed values and poison without a crash-sim stage are rejected.
  EXPECT_EQ(handle_command(svc, "SUBMIT topology=buck poison=2")
                .reply.rfind("ERR code=invalid_argument", 0),
            0u);
  EXPECT_EQ(handle_command(svc, "SUBMIT topology=buck poison=1")
                .reply.rfind("ERR code=invalid_argument", 0),
            0u);
}

// --- socket end to end ------------------------------------------------------

class Client {
 public:
  explicit Client(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    // The server binds lazily; retry briefly until it is listening.
    for (int i = 0; i < 200; ++i) {
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
        connected_ = true;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  std::string roundtrip(const std::string& line) {
    if (!send_line(line)) return "<send failed>";
    return recv_line();
  }

  // Split halves of roundtrip, for parking a RESULT without blocking the
  // test thread on the reply.
  bool send_line(const std::string& line) {
    const std::string req = line + "\n";
    std::size_t off = 0;
    while (off < req.size()) {
      const ssize_t n =
          ::send(fd_, req.data() + off, req.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  std::string recv_line() {
    while (buf_.find('\n') == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return "<closed>";
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
    const std::size_t nl = buf_.find('\n');
    std::string reply = buf_.substr(0, nl);
    buf_.erase(0, nl + 1);
    return reply;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

TEST(SocketServer, EndToEndSubmitResultStatsShutdown) {
  const std::string dir = fresh_dir("srv_sock");
  // Keep the socket path short: sockaddr_un caps it around 107 bytes.
  const std::string sock = "/tmp/emiplace_test_" + std::to_string(::getpid()) +
                           ".sock";
  Service svc({dir, 2, 16});
  SocketServer server(svc, sock);
  std::thread serving([&] { EXPECT_TRUE(server.serve().ok()); });

  {
    Client c(sock);
    ASSERT_TRUE(c.connected());
    EXPECT_EQ(c.roundtrip("PING"), "OK pong");

    const std::string sub = c.roundtrip("SUBMIT topology=buck points=30");
    ASSERT_EQ(sub, "OK id=1");
    // Blocking RESULT: the connection parks on the waiter list until the
    // executor finishes, then gets the terminal record.
    const std::string res = c.roundtrip("RESULT job=1");
    EXPECT_EQ(res.rfind("OK id=1 state=done complete=1", 0), 0u) << res;

    // A second client interleaves on the same poll loop.
    Client c2(sock);
    ASSERT_TRUE(c2.connected());
    EXPECT_EQ(c2.roundtrip("STATUS job=1"), res);
    EXPECT_EQ(c2.roundtrip("CANCEL job=1"), "OK id=1 cancelled");  // no-op ok

    const std::string stats = c.roundtrip("STATS");
    EXPECT_EQ(stats.rfind("OK submitted=1", 0), 0u) << stats;
    EXPECT_NE(stats.find(" done=1"), std::string::npos);

    EXPECT_EQ(c.roundtrip("SHUTDOWN"), "OK shutting_down");
  }
  serving.join();
  // The socket file is unlinked on exit.
  EXPECT_FALSE(std::filesystem::exists(sock));
}

// Overload shed on the wire: with the single executor pinned and the
// capacity-1 queue full, a third SUBMIT comes back as a resource_exhausted
// ERR line whose message carries the machine-readable retry_after_ms token.
TEST(SocketServer, ShedSubmitCarriesRetryAfterToken) {
  const std::string dir = fresh_dir("srv_shed");
  const std::string sock = "/tmp/emiplace_shed_" + std::to_string(::getpid()) +
                           ".sock";
  Service svc({dir, 1, 1});
  SocketServer server(svc, sock);
  std::thread serving([&] { EXPECT_TRUE(server.serve().ok()); });
  {
    Client c(sock);
    ASSERT_TRUE(c.connected());
    ASSERT_EQ(c.roundtrip("SUBMIT topology=buck points=30"), "OK id=1");
    // Wait until the executor owns job 1 so the queue is empty again.
    while (c.roundtrip("STATUS job=1").find("state=queued") != std::string::npos) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(c.roundtrip("SUBMIT topology=buck points=30"), "OK id=2");

    const std::string shed = c.roundtrip("SUBMIT topology=buck points=30");
    EXPECT_EQ(shed.rfind("ERR code=resource_exhausted", 0), 0u) << shed;
    EXPECT_NE(shed.find("queue full"), std::string::npos) << shed;
    EXPECT_NE(shed.find(" retry_after_ms="), std::string::npos) << shed;
    EXPECT_NE(c.roundtrip("HEALTH").find(" shed=1"), std::string::npos);

    EXPECT_EQ(c.roundtrip("SHUTDOWN"), "OK shutting_down");
  }
  serving.join();
}

// Regression (head-of-line blocking): a connection parked on RESULT for a
// never-terminal job must not stall the poll loop - other connections' PING/
// STATS/HEALTH answer promptly - and a SHUTDOWN flushes the parked waiter
// with the job's current (non-terminal) record instead of dropping it.
TEST(SocketServer, ControlPlaneLiveWhileResultParked) {
  const std::string dir = fresh_dir("srv_parked");
  const std::string sock = "/tmp/emiplace_park_" + std::to_string(::getpid()) +
                           ".sock";
  Service svc({dir, 1, 8});
  SocketServer server(svc, sock);
  std::thread serving([&] { EXPECT_TRUE(server.serve().ok()); });
  {
    Client parked(sock);
    ASSERT_TRUE(parked.connected());
    // Crash-sim job: halts with disk saying `running`, so it never reaches a
    // terminal state in this process - the RESULT below parks forever.
    ASSERT_EQ(parked.roundtrip(
                  "SUBMIT topology=buck points=30 stop_after=sensitivity"),
              "OK id=1");
    ASSERT_TRUE(parked.send_line("RESULT job=1"));

    // A second connection gets full service while the first one is parked.
    Client live(sock);
    ASSERT_TRUE(live.connected());
    EXPECT_EQ(live.roundtrip("PING"), "OK pong");
    const std::string stats = live.roundtrip("STATS");
    EXPECT_EQ(stats.rfind("OK submitted=1", 0), 0u) << stats;
    EXPECT_NE(stats.find(" stalled=0"), std::string::npos) << stats;
    EXPECT_EQ(live.roundtrip("HEALTH").rfind("OK queue_depth=", 0), 0u);

    // The crash-sim halt leaves the job's durable state at `running`; wait
    // for the executor to actually reach it so the flushed record below is
    // deterministic (SHUTDOWN could otherwise beat the dequeue and flush a
    // still-queued record).
    while (live.roundtrip("STATUS job=1").find("state=queued") !=
           std::string::npos) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    EXPECT_EQ(live.roundtrip("SHUTDOWN"), "OK shutting_down");
    // The parked waiter is flushed with the live record, not silently cut.
    const std::string flushed = parked.recv_line();
    EXPECT_EQ(flushed.rfind("OK id=1 state=running", 0), 0u) << flushed;
  }
  serving.join();
}

// SHUTDOWN DRAIN over the wire: reply acknowledges, control plane answers
// while the in-flight job lands, and the serve loop exits on its own once
// drain completes - no explicit SHUTDOWN needed.
TEST(SocketServer, DrainExitsLoopOnceIdle) {
  const std::string dir = fresh_dir("srv_drain");
  const std::string sock = "/tmp/emiplace_drain_" + std::to_string(::getpid()) +
                           ".sock";
  std::vector<std::uint64_t> ids;
  {
    Service svc({dir, 1, 16});
    SocketServer server(svc, sock);
    std::thread serving([&] { EXPECT_TRUE(server.serve().ok()); });
    {
      Client c(sock);
      ASSERT_TRUE(c.connected());
      ASSERT_EQ(c.roundtrip("SUBMIT topology=buck points=30"), "OK id=1");
      ASSERT_EQ(c.roundtrip("SUBMIT topology=buck points=30"), "OK id=2");
      // Drain only once job 1 is in flight: with nothing running,
      // drain_complete() is immediately true and the loop would exit
      // under our remaining roundtrips.
      while (c.roundtrip("STATUS job=1").find("state=queued") !=
             std::string::npos) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      EXPECT_EQ(c.roundtrip("SHUTDOWN DRAIN"), "OK draining");
      EXPECT_NE(c.roundtrip("HEALTH").find(" draining=1"), std::string::npos);
      EXPECT_EQ(c.roundtrip("SUBMIT topology=buck points=30")
                    .rfind("ERR code=failed_precondition", 0),
                0u);
    }
    serving.join();  // returns once the in-flight job landed
    EXPECT_TRUE(svc.drain_complete());
    EXPECT_FALSE(std::filesystem::exists(sock));
    ids = {1, 2};
  }
  // Nothing lost: whatever stayed queued under drain recovers and finishes.
  Service restarted({dir, 1, 16});
  for (const std::uint64_t id : ids) {
    const auto rec = restarted.wait(id);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec.value().state, JobState::kDone) << "job " << id;
  }
}

}  // namespace
}  // namespace emi::svc
