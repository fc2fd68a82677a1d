// Wire framing for the serve protocol: byte streams re-sliced into lines
// across arbitrary chunk boundaries, CRLF tolerance and the oversized-line
// guard.
#include "src/io/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace emi::io {
namespace {

TEST(LineFramer, ReassemblesAcrossChunkBoundaries) {
  LineFramer f;
  ASSERT_TRUE(f.feed("STA").ok());
  EXPECT_FALSE(f.next_line().has_value());
  ASSERT_TRUE(f.feed("TUS job=1\nPI").ok());
  EXPECT_EQ(f.next_line(), "STATUS job=1");
  EXPECT_FALSE(f.next_line().has_value());
  ASSERT_TRUE(f.feed("NG\n").ok());
  EXPECT_EQ(f.next_line(), "PING");
}

TEST(LineFramer, SeveralLinesPerFeedAndCrlf) {
  LineFramer f;
  ASSERT_TRUE(f.feed("PING\r\nSTATS\n\n").ok());
  EXPECT_EQ(f.next_line(), "PING");
  EXPECT_EQ(f.next_line(), "STATS");
  EXPECT_EQ(f.next_line(), "");  // blank line is an (empty) line
  EXPECT_FALSE(f.next_line().has_value());
}

TEST(LineFramer, OversizedLinePoisons) {
  LineFramer f(16);
  const core::Status st = f.feed(std::string(17, 'x'));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), core::ErrorCode::kInvalidArgument);
  EXPECT_TRUE(f.poisoned());
  EXPECT_FALSE(f.next_line().has_value());
  // Poisoned framers stay poisoned: the connection must be dropped.
  EXPECT_EQ(f.feed("PING\n").code(), core::ErrorCode::kFailedPrecondition);
}

TEST(LineFramer, TerminatedLinesNeverPoisonRegardlessOfVolume) {
  LineFramer f(32);
  // Many short lines through a tiny guard: total volume is unbounded, only
  // individual unterminated lines count against the limit.
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(f.feed("STATUS job=42\n").ok());
    ASSERT_EQ(f.next_line(), "STATUS job=42");
  }
  EXPECT_FALSE(f.poisoned());
}

// --- deterministic poisoning fuzz battery -----------------------------------
//
// The framer against a reference model over seeded adversarial streams:
// random chunk boundaries, CRLF/LF mixing, embedded NUL/control bytes, and
// oversized unterminated runs. The model mirrors the documented contract
// exactly - a feed poisons iff the unconsumed bytes exceed the guard with no
// newline among them - so any divergence (wrong line bytes, missed or
// spurious poisoning, a crash) fails the test with the offending seed.

// Counter-based PRNG so the battery replays bit-identically (no std::rand /
// <random> engines, per the determinism rules).
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

// Reference model of LineFramer: `residual` holds unconsumed bytes. Returns
// the lines a fully drained framer must emit for this feed, or nullopt for
// "this feed must poison".
std::optional<std::vector<std::string>> model_feed(std::string& residual,
                                                   std::string_view bytes,
                                                   std::size_t max_line) {
  residual.append(bytes);
  if (residual.find('\n') == std::string::npos) {
    if (residual.size() > max_line) return std::nullopt;
    return std::vector<std::string>{};
  }
  std::vector<std::string> lines;
  std::size_t pos = 0, nl = 0;
  while ((nl = residual.find('\n', pos)) != std::string::npos) {
    std::size_t end = nl;
    if (end > pos && residual[end - 1] == '\r') --end;
    lines.push_back(residual.substr(pos, end - pos));
    pos = nl + 1;
  }
  residual.erase(0, pos);
  return lines;
}

TEST(LineFramerFuzz, RandomChunksMatchReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng{seed};
    const std::size_t max_line = 32 + rng.below(96);
    LineFramer f(max_line);
    std::string residual;

    // A stream of mostly-reasonable lines with adversarial bytes mixed in.
    std::string stream;
    for (int i = 0; i < 200; ++i) {
      const std::size_t len = rng.below(max_line);  // always under the guard
      std::string line;
      for (std::size_t j = 0; j < len; ++j) {
        // Any byte but '\n'; '\r' only mid-line so LF vs CRLF stays the
        // terminator's choice, not the payload's.
        char c = static_cast<char>(rng.next() & 0xff);
        if (c == '\n' || (c == '\r' && j + 1 == len)) c = 'x';
        line.push_back(c);
      }
      stream += line;
      stream += rng.below(3) == 0 ? "\r\n" : "\n";
    }

    bool poisoned = false;
    std::size_t off = 0;
    while (off < stream.size() && !poisoned) {
      const std::size_t n = 1 + rng.below(48);
      const std::string_view chunk{stream.data() + off,
                                   std::min(n, stream.size() - off)};
      off += chunk.size();
      const auto expect = model_feed(residual, chunk, max_line);
      const core::Status st = f.feed(chunk);
      ASSERT_EQ(st.ok(), expect.has_value()) << "seed " << seed << " off " << off;
      if (!expect.has_value()) {
        poisoned = true;
        break;
      }
      for (const std::string& want : *expect) {
        const auto got = f.next_line();
        ASSERT_TRUE(got.has_value()) << "seed " << seed;
        EXPECT_EQ(*got, want) << "seed " << seed;
        EXPECT_LE(got->size(), max_line) << "seed " << seed;
      }
      EXPECT_FALSE(f.next_line().has_value()) << "seed " << seed;
    }
    // Lines always stay under the guard here, so no stream may poison.
    EXPECT_FALSE(poisoned) << "seed " << seed;
    EXPECT_FALSE(f.poisoned());
  }
}

TEST(LineFramerFuzz, OversizedRunsPoisonExactlyPerModel) {
  int poisons = 0;
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    Rng rng{seed};
    const std::size_t max_line = 24 + rng.below(40);
    LineFramer f(max_line);
    std::string residual;
    bool poisoned = false;

    for (int round = 0; round < 80 && !poisoned; ++round) {
      // Mostly garbage without newlines; occasional terminators reprieve
      // the buffer.
      const std::size_t len = 1 + rng.below(max_line);
      std::string chunk(len, '\0');
      for (char& c : chunk) {
        c = static_cast<char>('A' + rng.below(26));
      }
      if (rng.below(4) == 0) chunk[rng.below(chunk.size())] = '\n';

      const auto expect = model_feed(residual, chunk, max_line);
      const core::Status st = f.feed(chunk);
      ASSERT_EQ(st.ok(), expect.has_value()) << "seed " << seed;
      if (!expect.has_value()) {
        EXPECT_EQ(st.code(), core::ErrorCode::kInvalidArgument);
        EXPECT_TRUE(f.poisoned());
        poisoned = true;
        ++poisons;
        break;
      }
      for (const std::string& want : *expect) {
        const auto got = f.next_line();
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, want);
      }
    }
    if (poisoned) {
      // Poison is sticky under further abuse: every subsequent feed fails
      // with failed_precondition and no buffered bytes ever leak out.
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(f.feed("PING\n").code(), core::ErrorCode::kFailedPrecondition);
        EXPECT_FALSE(f.next_line().has_value());
      }
      // Recovery is per-connection: a fresh framer (new connection) serves
      // the same peer normally.
      LineFramer fresh(max_line);
      EXPECT_TRUE(fresh.feed("PING\n").ok());
      EXPECT_EQ(fresh.next_line(), "PING");
    }
  }
  // The corpus must actually reach the poison path; if retuning the
  // generator ever makes it unreachable, this guards the battery's bite.
  EXPECT_GT(poisons, 5);
}

TEST(LineFramerFuzz, GuardBoundaryIsExact) {
  // max_line pending bytes without a newline: legal. One more: poison.
  LineFramer ok(16);
  ASSERT_TRUE(ok.feed(std::string(16, 'a')).ok());
  EXPECT_FALSE(ok.poisoned());
  ASSERT_TRUE(ok.feed("\n").ok());  // terminator arrives; full line comes out
  EXPECT_EQ(ok.next_line(), std::string(16, 'a'));

  LineFramer over(16);
  EXPECT_FALSE(over.feed(std::string(17, 'a')).ok());
  EXPECT_TRUE(over.poisoned());

  // NUL bytes are payload, not terminators.
  LineFramer nul(64);
  const std::string embedded = std::string("AB") + '\0' + "CD";
  ASSERT_TRUE(nul.feed(embedded + "\n").ok());
  EXPECT_EQ(nul.next_line(), embedded);
}

}  // namespace
}  // namespace emi::io
