// Line-oriented wire protocol framing for the serve mode: a byte stream
// arrives in arbitrary chunks (partial lines, several lines per read), and
// the framer re-slices it into complete '\n'-terminated lines with a hard
// per-line size guard, so a misbehaving or malicious client cannot grow the
// server's buffer without bound. Pure string manipulation - no sockets, no
// threads - so the framing is unit-testable without I/O.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "src/core/status.hpp"

namespace emi::io {

class LineFramer {
 public:
  // Generous for the serve protocol (paths and ids, not payloads); a line
  // beyond this poisons the framer instead of buffering forever.
  static constexpr std::size_t kMaxLine = 64 * 1024;

  explicit LineFramer(std::size_t max_line = kMaxLine) : max_line_(max_line) {}

  // Append received bytes. Returns kResourceExhausted-style kInvalidArgument
  // once an unterminated line exceeds the guard; the framer then stays
  // poisoned (the connection should be dropped).
  [[nodiscard]] core::Status feed(std::string_view bytes);

  // Next complete line, stripped of the trailing '\n' (and a '\r' before it,
  // so netcat/socat in CRLF mode work). nullopt when no full line is
  // buffered yet.
  std::optional<std::string> next_line();

  bool poisoned() const { return poisoned_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;  // start of the first unconsumed byte
  std::size_t max_line_;
  bool poisoned_ = false;
};

}  // namespace emi::io
