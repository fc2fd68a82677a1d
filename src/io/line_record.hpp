// Line-record codec: the one tokenizer, field grammar and checksum envelope
// behind every line format the tool reads or writes - the flow checkpoint
// (EMICKPT), the service's job records (EMIJOB, via io::kvfile), the serve
// wire protocol and the CLI's numeric flags.
//
// Tokens are runs of non-blank bytes separated by spaces or tabs. Field
// readers accept exactly what the writers here emit and nothing else:
//
//   decimal u64   [0-9]+, in range               (no sign, blank or prefix)
//   hex u64       [0-9a-fA-F]+, in range         (no sign, blank or "0x")
//   hex64         exactly 16 hex digits          (digests, fingerprints)
//   double bits   hex64 of the IEEE-754 pattern  (exact round trip)
//
// A sealed record is a payload of '\n'-terminated lines followed by one
// `checksum <hex64>` line holding the FNV-1a hash of every payload byte.
// open_sealed() verifies and strips that line before any field is believed,
// so a truncated, torn or bit-flipped file is a line-numbered kParseError
// and never a half-loaded record.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/status.hpp"

namespace emi::io {

// Whitespace-separated tokens (space/tab); empty tokens never appear.
std::vector<std::string> split_tokens(std::string_view line);

// `key=value` fields: the value of the first token carrying `key`, or
// nullopt. The value may be empty ("key=").
std::optional<std::string> kv_value(const std::vector<std::string>& tokens,
                                    std::string_view key);

// --- field writers ----------------------------------------------------------

std::string hex64(std::uint64_t v);       // 16 lowercase hex digits
std::string double_bits(double v);        // hex64 of the IEEE-754 bits
// '\n' and '\r' become spaces, so free text can never break a line format.
std::string one_line(std::string s);

// --- strict field readers ---------------------------------------------------
// `out` is written only on success.

[[nodiscard]] bool parse_u64(std::string_view s, std::uint64_t& out, int base = 10);
[[nodiscard]] bool parse_hex64(std::string_view s, std::uint64_t& out);
[[nodiscard]] bool parse_double_bits(std::string_view s, double& out);

// --- checksum envelope ------------------------------------------------------
// Every rejection is a kParseError "line N: ..." tagged with the caller's
// stage.

// payload + "checksum <hex64(fnv64(payload))>\n".
std::string seal(std::string payload);

// The payload of a sealed record (a view into `text`), or a kParseError
// naming the offending line: empty text, missing checksum line, trailing
// bytes after it, a malformed value or a mismatch.
[[nodiscard]] core::Result<std::string_view> open_sealed(std::string_view text,
                                                         std::string_view stage);

// Whole file as bytes; kIoError tagged with `stage` when it cannot be read.
[[nodiscard]] core::Result<std::string> read_file(const std::string& path,
                                                  std::string_view stage);

// Sequential reader over a payload's lines. line_no() is the 1-based number
// of the line last read; every error carries it.
class LineCursor {
 public:
  LineCursor(std::string_view text, std::string_view stage)
      : text_(text), stage_(stage) {}

  bool at_end() const { return pos_ >= text_.size(); }
  std::size_t line_no() const { return line_no_; }

  // The next raw line (without its '\n'); nullopt past the end.
  std::optional<std::string_view> next_line();

  // The next line as tokens, which must start with `what` and number at
  // least `min_tokens`.
  [[nodiscard]] core::Status next(std::string_view what, std::size_t min_tokens,
                                  std::vector<std::string>& tokens);

  // Text of the current line after its first `n` tokens and the one blank
  // that follows them - a trailing free-text field, spaces kept. nullopt
  // when the line ends right after token `n`.
  std::optional<std::string_view> rest(std::size_t n) const;

  // kParseError at the current line.
  [[nodiscard]] core::Status error(const std::string& msg) const;
  // kParseError at the following line unless every line was consumed.
  [[nodiscard]] core::Status expect_end(std::string_view after) const;

 private:
  std::string_view text_;
  std::string_view stage_;
  std::string_view line_;
  std::size_t pos_ = 0;
  std::size_t line_no_ = 0;
};

}  // namespace emi::io
