// Shared command-line flag parsing for the emiplace subcommands.
//
// One Status-returning FlagSet for every subcommand's flags. Register the
// flags a subcommand accepts, call parse(), and map a failed Status to the
// usage exit (2). Numbers are read with io::parse_u64, so the whole token
// must be decimal digits in range ("12abc", "+60" and negatives are errors,
// not prefixes); unknown options and missing values are kInvalidArgument
// with a message naming the offending token.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/core/status.hpp"
#include "src/io/line_record.hpp"

namespace emi::cli {

class FlagSet {
 public:
  // --name <V>: unsigned integer, range-checked inclusively.
  void add_u64(std::string name, std::uint64_t* out, std::uint64_t min_v = 0,
               std::uint64_t max_v = std::numeric_limits<std::uint64_t>::max()) {
    flags_.push_back({std::move(name), Kind::kU64, out, nullptr, nullptr, nullptr,
                      min_v, max_v, {}, {}});
  }

  // --name <V>: non-negative count stored as std::size_t.
  void add_size(std::string name, std::size_t* out, std::uint64_t min_v = 0,
                std::uint64_t max_v = std::numeric_limits<std::uint64_t>::max()) {
    flags_.push_back({std::move(name), Kind::kSize, nullptr, out, nullptr, nullptr,
                      min_v, max_v, {}, {}});
  }

  // --name <MS>: non-negative millisecond budget stored as std::int64_t
  // (0 = unlimited, matching Deadline semantics).
  void add_ms(std::string name, std::int64_t* out) {
    flags_.push_back({std::move(name), Kind::kMs, nullptr, nullptr, out, nullptr,
                      0, static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()),
                      {}, {}});
  }

  // --name <V>: free-form string.
  void add_string(std::string name, std::string* out) {
    flags_.push_back({std::move(name), Kind::kString, nullptr, nullptr, nullptr,
                      nullptr, 0, 0, {}, {}, out});
  }

  // --name <V>: string accepted only when `check(V)` holds; `what` names the
  // domain in the error ("unknown <what>: V").
  void add_checked(std::string name, std::string* out,
                   std::function<bool(const std::string&)> check, std::string what) {
    flags_.push_back({std::move(name), Kind::kChecked, nullptr, nullptr, nullptr,
                      nullptr, 0, 0, std::move(check), std::move(what), out});
  }

  // --name: boolean switch, no value.
  void add_switch(std::string name, bool* out) {
    flags_.push_back({std::move(name), Kind::kSwitch, nullptr, nullptr, nullptr, out,
                      0, 0, {}, {}});
  }

  // Handler for non-flag tokens, called with the positional's ordinal (0, 1,
  // ...) in argv order. Without one, any non-flag token is an error.
  void positional(std::function<core::Status(std::size_t, const std::string&)> fn) {
    positional_ = std::move(fn);
  }

  core::Status parse(int argc, char** argv) const {
    std::size_t ordinal = 0;
    for (int i = 0; i < argc; ++i) {
      const std::string tok = argv[i];
      const Flag* flag = nullptr;
      for (const Flag& f : flags_) {
        if (f.name == tok) {
          flag = &f;
          break;
        }
      }
      if (flag == nullptr) {
        if (!tok.empty() && tok[0] == '-') return err("unknown option: " + tok);
        if (!positional_) return err("unexpected argument: " + tok);
        if (core::Status st = positional_(ordinal++, tok); !st.ok()) return st;
        continue;
      }
      if (flag->kind == Kind::kSwitch) {
        *flag->out_switch = true;
        continue;
      }
      if (i + 1 >= argc) return err("missing value for " + flag->name);
      const char* val = argv[++i];
      switch (flag->kind) {
        case Kind::kU64:
        case Kind::kSize:
        case Kind::kMs: {
          std::uint64_t v = 0;
          if (!io::parse_u64(val, v) || v < flag->min_v || v > flag->max_v) {
            return err("invalid " + flag->name + " value: " + val);
          }
          if (flag->kind == Kind::kU64) *flag->out_u64 = v;
          if (flag->kind == Kind::kSize) *flag->out_size = static_cast<std::size_t>(v);
          if (flag->kind == Kind::kMs) *flag->out_ms = static_cast<std::int64_t>(v);
          break;
        }
        case Kind::kString:
          *flag->out_string = val;
          break;
        case Kind::kChecked:
          if (!flag->check(val)) {
            return err("unknown " + flag->what + ": " + val);
          }
          *flag->out_string = val;
          break;
        case Kind::kSwitch:
          break;  // handled above
      }
    }
    return core::Status();
  }

 private:
  enum class Kind { kU64, kSize, kMs, kString, kChecked, kSwitch };

  struct Flag {
    std::string name;
    Kind kind;
    std::uint64_t* out_u64 = nullptr;
    std::size_t* out_size = nullptr;
    std::int64_t* out_ms = nullptr;
    bool* out_switch = nullptr;
    std::uint64_t min_v = 0;
    std::uint64_t max_v = 0;
    std::function<bool(const std::string&)> check;
    std::string what;
    std::string* out_string = nullptr;
  };

  static core::Status err(const std::string& msg) {
    return core::Status(core::ErrorCode::kInvalidArgument, "cli", msg);
  }

  std::vector<Flag> flags_;
  std::function<core::Status(std::size_t, const std::string&)> positional_;
};

}  // namespace emi::cli
