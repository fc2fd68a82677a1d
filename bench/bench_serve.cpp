// Performance: the EMI service end to end - submit -> result latency and
// throughput (jobs/s, reported as items_per_second) at 1/4/16 concurrent
// sessions hammering one daemon-grade svc::Service on the buck golden.
//
// Two regimes per session count:
//   cold  - a fresh Service (fresh two-tier cache) per iteration; every job
//           pays the full extraction cost.
//   warm  - one long-lived Service; after the first iteration the shared
//           global tier serves every extraction, so the steady-state numbers
//           are what a long-running daemon delivers.
// The cold/warm ratio is the amortization the session/shared cache split
// buys (the reduced-order reuse motivation, PAPERS.md).
//
// BM_ServeSocketRoundTrip puts the warm service behind a SocketServer and
// times SUBMIT -> RESULT over the Unix socket, the way `emiplace submit`
// and `emiplace result` see it: that includes how soon the serve loop
// answers a parked RESULT once its job lands, which the in-process
// benchmarks (Service::wait) cannot see.
#include <benchmark/benchmark.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/svc/job.hpp"
#include "src/svc/server.hpp"
#include "src/svc/service.hpp"

namespace {

using namespace emi;

constexpr std::size_t kSweepPoints = 30;  // the buck golden at CLI-quick scale

std::string bench_dir(const char* tag) {
  const std::string dir =
      std::filesystem::temp_directory_path().string() + "/bench_serve_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

svc::JobSpec spec_for(int session) {
  svc::JobSpec spec;
  spec.topology = "buck";
  spec.sweep_points = kSweepPoints;
  spec.client = "bench-" + std::to_string(session);
  return spec;
}

// One round: `sessions` threads each submit one job under their own session
// and block until its terminal record. Aborts the benchmark on any
// non-`done` outcome, so the numbers never average over failed work.
void run_round(benchmark::State& state, svc::Service& svc, int sessions) {
  std::vector<std::thread> clients;
  std::atomic<bool> ok{true};
  clients.reserve(static_cast<std::size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    clients.emplace_back([&svc, &ok, s] {
      const core::Result<std::uint64_t> id = svc.submit(spec_for(s));
      if (!id.ok()) {
        ok = false;
        return;
      }
      const core::Result<svc::JobRecord> rec = svc.wait(id.value());
      if (!rec.ok() || rec.value().state != svc::JobState::kDone) ok = false;
    });
  }
  for (std::thread& t : clients) t.join();
  if (!ok) state.SkipWithError("job failed");
}

// Cold: every iteration builds a fresh service (empty caches, empty state
// dir), so per-job cost includes the full PEEC extraction.
void BM_ServeSubmitResult_Cold(benchmark::State& state) {
  const int sessions = static_cast<int>(state.range(0));
  const std::string dir = bench_dir("cold");
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    svc::Service svc({dir, 2, 64});
    state.ResumeTiming();
    run_round(state, svc, sessions);
  }
  state.SetItemsProcessed(state.iterations() * sessions);
}
BENCHMARK(BM_ServeSubmitResult_Cold)
    ->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Warm: one service lives across iterations; the global cache tier is warm
// after the first round and every later job is served from shared entries.
void BM_ServeSubmitResult_Warm(benchmark::State& state) {
  const int sessions = static_cast<int>(state.range(0));
  const std::string dir = bench_dir("warm");
  std::filesystem::remove_all(dir);
  svc::Service svc({dir, 2, 4096});
  run_round(state, svc, sessions);  // warm the global tier outside the timing
  for (auto _ : state) {
    run_round(state, svc, sessions);
  }
  state.SetItemsProcessed(state.iterations() * sessions);
}
BENCHMARK(BM_ServeSubmitResult_Warm)
    ->Arg(1)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Overload: `sessions` clients hammer a deliberately small service (2
// executors, capacity-4 queue), so the offered concurrency is roughly twice
// what the box sustains. Sheds are expected - the point is the policy:
// excess turns into kResourceExhausted + retry_after_ms instead of queue
// bloat, shed clients retry politely, and the latency distribution of
// *accepted* jobs stays bounded. Counters: shed_rate = sheds / offered
// submits, p50_ms / p99_ms over accepted submit->terminal latencies.
// items_per_second counts completed jobs only, never averaged over sheds.
void BM_ServeOverload(benchmark::State& state) {
  const int sessions = static_cast<int>(state.range(0));
  constexpr int kBurst = 4;  // jobs per client per iteration
  const std::string dir = bench_dir("overload");
  std::filesystem::remove_all(dir);
  svc::Service svc({dir, /*executors=*/2, /*queue_capacity=*/4});
  run_round(state, svc, 2);  // warm the global cache tier + the admission EWMA

  std::mutex mu;
  std::vector<double> accepted_ms;
  std::atomic<std::uint64_t> offered{0};
  std::atomic<std::uint64_t> sheds{0};
  std::atomic<bool> ok{true};
  for (auto _ : state) {
    std::vector<std::thread> clients;
    clients.reserve(static_cast<std::size_t>(sessions));
    for (int s = 0; s < sessions; ++s) {
      clients.emplace_back([&, s] {
        for (int b = 0; b < kBurst; ++b) {
          const auto t0 = std::chrono::steady_clock::now();
          core::Result<std::uint64_t> id = svc.submit(spec_for(s));
          offered.fetch_add(1, std::memory_order_relaxed);
          int retries = 0;
          while (!id.ok() &&
                 id.status().code() == core::ErrorCode::kResourceExhausted) {
            sheds.fetch_add(1, std::memory_order_relaxed);
            if (++retries > 1000) break;
            // Ride the service's own load estimate, like `submit --retry`.
            const std::int64_t hint = svc.health().retry_after_ms;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(hint > 0 ? hint : 1));
            id = svc.submit(spec_for(s));
            offered.fetch_add(1, std::memory_order_relaxed);
          }
          if (!id.ok()) {
            ok = false;
            return;
          }
          const core::Result<svc::JobRecord> rec = svc.wait(id.value());
          if (!rec.ok() || rec.value().state != svc::JobState::kDone) {
            ok = false;
            return;
          }
          const double ms =
              std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
          const std::lock_guard<std::mutex> lock(mu);
          accepted_ms.push_back(ms);
        }
      });
    }
    for (std::thread& t : clients) t.join();
    if (!ok) state.SkipWithError("overloaded job failed");
  }

  std::sort(accepted_ms.begin(), accepted_ms.end());
  const auto pct = [&](double q) {
    if (accepted_ms.empty()) return 0.0;
    const std::size_t i = static_cast<std::size_t>(
        q * static_cast<double>(accepted_ms.size() - 1));
    return accepted_ms[i];
  };
  state.counters["p50_ms"] = pct(0.50);
  state.counters["p99_ms"] = pct(0.99);
  const double off = static_cast<double>(offered.load());
  state.counters["shed_rate"] =
      off > 0.0 ? static_cast<double>(sheds.load()) / off : 0.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(accepted_ms.size()));
}
BENCHMARK(BM_ServeOverload)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// One protocol connection: a request line out, its reply line back.
class WireClient {
 public:
  explicit WireClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    // The server binds in serve(); retry until it listens.
    for (int i = 0; i < 400; ++i) {
      if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ::close(fd_);
    fd_ = -1;
  }
  ~WireClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  bool connected() const { return fd_ >= 0; }

  // The reply line, or "" when the connection failed.
  std::string roundtrip(const std::string& line) {
    const std::string req = line + "\n";
    if (::send(fd_, req.data(), req.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(req.size())) {
      return std::string();
    }
    // One request in flight per connection: the reply is all there is.
    std::string reply;
    char buf[512];
    while (reply.empty() || reply.back() != '\n') {
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n <= 0) return std::string();
      reply.append(buf, static_cast<std::size_t>(n));
    }
    reply.pop_back();
    return reply;
  }

 private:
  int fd_ = -1;
};

// Socket round trip: a warm 2-executor service behind a SocketServer; per
// iteration each of `clients` threads runs SUBMIT -> RESULT once over its
// own connection. Counter: p50_ms over every round trip of the run.
void BM_ServeSocketRoundTrip(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  const std::string dir = bench_dir("socket");
  // sockaddr_un caps the path near 107 bytes: keep it short.
  const std::string sock = "/tmp/bench_serve_" + std::to_string(::getpid()) + ".sock";
  svc::Service svc({dir, 2, 4096});
  run_round(state, svc, 2);  // warm the global cache tier outside the timing
  svc::SocketServer server(svc, sock);
  std::thread serving([&server] { (void)server.serve(); });

  std::vector<std::unique_ptr<WireClient>> conns;
  for (int c = 0; c < clients; ++c) {
    conns.push_back(std::make_unique<WireClient>(sock));
    if (!conns.back()->connected()) state.SkipWithError("cannot connect");
  }
  std::vector<std::vector<double>> round_ms(static_cast<std::size_t>(clients));
  std::atomic<bool> ok{true};
  for (auto _ : state) {
    if (!ok) break;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        WireClient& conn = *conns[static_cast<std::size_t>(c)];
        const auto t0 = std::chrono::steady_clock::now();
        const std::string sub = conn.roundtrip("SUBMIT topology=buck points=" +
                                               std::to_string(kSweepPoints) +
                                               " client=bench-" + std::to_string(c));
        if (sub.rfind("OK id=", 0) != 0) {
          ok = false;
          return;
        }
        const std::string res = conn.roundtrip("RESULT job=" + sub.substr(6));
        if (res.find(" state=done ") == std::string::npos) {
          ok = false;
          return;
        }
        round_ms[static_cast<std::size_t>(c)].push_back(
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                .count());
      });
    }
    for (std::thread& t : threads) t.join();
  }
  if (!ok) state.SkipWithError("round trip failed");
  server.stop();
  serving.join();

  std::vector<double> all;
  for (const std::vector<double>& v : round_ms) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  state.counters["p50_ms"] = all.empty() ? 0.0 : all[(all.size() - 1) / 2];
  state.SetItemsProcessed(static_cast<std::int64_t>(all.size()));
}
BENCHMARK(BM_ServeSocketRoundTrip)
    ->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
