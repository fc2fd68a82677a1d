#include "src/io/line_record.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <fstream>
#include <sstream>

#include "src/core/fault_injection.hpp"

namespace emi::io {

namespace {

bool is_blank(char c) { return c == ' ' || c == '\t'; }

constexpr std::string_view kChecksumTag = "checksum ";

core::Status line_error(std::string_view stage, std::size_t line_no,
                        const std::string& msg) {
  return core::Status(core::ErrorCode::kParseError, std::string(stage),
                      "line " + std::to_string(line_no) + ": " + msg);
}

}  // namespace

std::vector<std::string> split_tokens(std::string_view line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_blank(line[i])) ++i;
    const std::size_t start = i;
    while (i < line.size() && !is_blank(line[i])) ++i;
    if (i > start) tokens.emplace_back(line.substr(start, i - start));
  }
  return tokens;
}

std::optional<std::string> kv_value(const std::vector<std::string>& tokens,
                                    std::string_view key) {
  for (const std::string& t : tokens) {
    if (t.size() > key.size() && t.compare(0, key.size(), key) == 0 &&
        t[key.size()] == '=') {
      return t.substr(key.size() + 1);
    }
  }
  return std::nullopt;
}

std::string hex64(std::uint64_t v) {
  std::string out;
  append_hex64(out, v);
  return out;
}

void append_hex64(std::string& out, std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  char buf[16];
  for (std::size_t i = sizeof buf; i-- > 0; v >>= 4) buf[i] = kDigits[v & 0xf];
  out.append(buf, sizeof buf);
}

std::string double_bits(double v) { return hex64(std::bit_cast<std::uint64_t>(v)); }

std::string one_line(std::string s) {
  std::replace_if(s.begin(), s.end(), [](char c) { return c == '\n' || c == '\r'; },
                  ' ');
  return s;
}

bool parse_u64(std::string_view s, std::uint64_t& out, int base) {
  // from_chars takes no sign, blank or base prefix and reports overflow.
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [p, ec] = std::from_chars(s.data(), end, v, base);
  if (ec != std::errc() || p != end) return false;
  out = v;
  return true;
}

bool parse_hex64(std::string_view s, std::uint64_t& out) {
  return s.size() == 16 && parse_u64(s, out, 16);
}

bool parse_double_bits(std::string_view s, double& out) {
  std::uint64_t bits = 0;
  if (!parse_hex64(s, bits)) return false;
  out = std::bit_cast<double>(bits);
  return true;
}

std::string seal(std::string payload) {
  const std::uint64_t sum = core::fault::fnv64(payload);
  payload += kChecksumTag;
  payload += hex64(sum);
  payload += '\n';
  return payload;
}

core::Result<std::string_view> open_sealed(std::string_view text,
                                           std::string_view stage) {
  if (text.empty()) return line_error(stage, 1, "empty file");
  const auto lines_before = [&](std::size_t pos) {
    return static_cast<std::size_t>(
        std::count(text.begin(), text.begin() + static_cast<std::ptrdiff_t>(pos), '\n'));
  };
  const std::size_t pos = text.rfind(kChecksumTag);
  if (pos == std::string_view::npos || (pos != 0 && text[pos - 1] != '\n')) {
    return line_error(stage, lines_before(text.size()) + 1,
                      "missing checksum line (truncated file?)");
  }
  const std::size_t checksum_line = lines_before(pos) + 1;
  const std::size_t eol = text.find('\n', pos);
  if (eol != std::string_view::npos && eol + 1 != text.size()) {
    return line_error(stage, checksum_line + 1, "trailing data after checksum line");
  }
  std::string_view value = text.substr(pos + kChecksumTag.size());
  while (!value.empty() && (value.back() == '\n' || value.back() == '\r')) {
    value.remove_suffix(1);
  }
  std::uint64_t want = 0;
  if (!parse_hex64(value, want)) {
    return line_error(stage, checksum_line, "malformed checksum value");
  }
  const std::string_view payload = text.substr(0, pos);
  if (core::fault::fnv64(payload) != want) {
    return line_error(stage, checksum_line, "checksum mismatch (torn write or corruption)");
  }
  return payload;
}

core::Result<std::string> read_file(const std::string& path, std::string_view stage) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return core::Status(core::ErrorCode::kIoError, std::string(stage),
                        "cannot open: " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  if (!in.good() && !in.eof()) {
    return core::Status(core::ErrorCode::kIoError, std::string(stage),
                        "cannot read: " + path);
  }
  return std::move(ss).str();
}

std::optional<std::string_view> LineCursor::next_line() {
  ++line_no_;
  if (at_end()) return std::nullopt;
  std::size_t eol = text_.find('\n', pos_);
  if (eol == std::string_view::npos) eol = text_.size();
  line_ = text_.substr(pos_, eol - pos_);
  pos_ = eol + 1;
  return line_;
}

core::Status LineCursor::next(std::string_view what, std::size_t min_tokens,
                              std::vector<std::string>& tokens) {
  if (!next_line()) {
    return error("unexpected end of file, expected " + std::string(what));
  }
  tokens = split_tokens(line_);
  if (tokens.size() < min_tokens || tokens.empty() || tokens[0] != what) {
    return error("malformed '" + std::string(what) + "' record");
  }
  return core::Status();
}

std::optional<std::string_view> LineCursor::rest(std::size_t n) const {
  std::size_t i = 0;
  for (std::size_t k = 0; k < n; ++k) {
    while (i < line_.size() && is_blank(line_[i])) ++i;
    while (i < line_.size() && !is_blank(line_[i])) ++i;
  }
  if (i >= line_.size()) return std::nullopt;
  return line_.substr(i + 1);
}

core::Status LineCursor::error(const std::string& msg) const {
  return line_error(stage_, line_no_, msg);
}

core::Status LineCursor::expect_end(std::string_view after) const {
  if (at_end()) return core::Status();
  return line_error(stage_, line_no_ + 1, "trailing data after " + std::string(after));
}

}  // namespace emi::io
