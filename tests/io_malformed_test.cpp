// Malformed-input hardening for the design format: whatever garbage comes
// in, the parser answers with a kParseError Status carrying the line number
// - never a crash, never a silently poisoned design.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/core/fault_injection.hpp"
#include "src/io/design_format.hpp"
#include "src/numeric/rng.hpp"

namespace emi::io {
namespace {

constexpr const char* kSample = R"(# sample design
boards 2
clearance 0.8
component CX1 26 10 12 axis=90 group=filter rot=0,90,180,270 prefrot=90
component LF 14 16 14 axis=90 group=filter areas=main prefareas=main
component CONN 18 8 10
pin CX1 1 -11.25 0
pin CX1 2 11.25 0
net N1 maxlen=80 CX1.1 LF
net N2 CX1.2 CONN
area main 0 0 0 100 0 100 60 0 60
area aux 1 0 0 50 0 50 40 0 40
keepout heatsink 0 70 10 95 40 0 1e9
keepout rib 0 0 50 100 60 8 1e9
pemd CX1 LF 21.5
place CONN 10 6 0 0
)";

// Parse `text` and require the taxonomy: it either loads, or comes back as
// a kParseError Status from io.design_format whose message opens with the
// offending line number.
void expect_parse_or_diagnose(const std::string& text) {
  std::istringstream in(text);
  const core::Result<LoadedDesign> r = try_load_design(in);
  if (r.ok()) return;
  EXPECT_EQ(r.status().code(), core::ErrorCode::kParseError);
  EXPECT_EQ(r.status().stage(), "io.design_format");
  EXPECT_EQ(r.status().message().rfind("line ", 0), 0u) << r.status().to_string();
}

TEST(MalformedInput, NonFiniteFieldsAreParseErrors) {
  for (const char* bad : {"nan", "inf", "-inf", "1e999", "-1e999"}) {
    std::istringstream in("boards 1\ncomponent C1 " + std::string(bad) + " 4 2\n");
    const core::Result<LoadedDesign> r = try_load_design(in);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), core::ErrorCode::kParseError) << bad;
    EXPECT_NE(r.status().message().find("line 2"), std::string::npos) << bad;
  }
}

TEST(MalformedInput, NonNumericFieldsAreParseErrors) {
  expect_parse_or_diagnose("component C1 abc 4 2\n");
  expect_parse_or_diagnose("component C1 5 4 2 axis=12abc\n");
  expect_parse_or_diagnose("clearance wide\n");
  expect_parse_or_diagnose("boards many\n");
}

TEST(MalformedInput, TruncatedLinesAreParseErrors) {
  expect_parse_or_diagnose("component C1\n");
  expect_parse_or_diagnose("component C1 5\n");
  expect_parse_or_diagnose("pin C1 p 0\n");
  expect_parse_or_diagnose("keepout k 0 1 2 3\n");
  expect_parse_or_diagnose("pemd A\n");
  expect_parse_or_diagnose("place C1 1 2\n");
}

TEST(MalformedInput, DuplicateComponentNamesAreParseErrors) {
  std::istringstream in("component A 1 1 1\ncomponent A 2 2 2\n");
  const core::Result<LoadedDesign> r = try_load_design(in);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), core::ErrorCode::kParseError);
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

TEST(MalformedInput, OversizedCountsAreParseErrors) {
  expect_parse_or_diagnose("boards 1000000\n");
  expect_parse_or_diagnose("boards 0\n");
  expect_parse_or_diagnose("boards -3\n");
  expect_parse_or_diagnose("component C1 5 4 2 board=70000\n");
  expect_parse_or_diagnose("component C1 5 4 2 board=-2\n");
  expect_parse_or_diagnose("area a 99999999999 0 0 1 0 1 1 0 1\n");
  expect_parse_or_diagnose("clearance -1\n");
}

TEST(MalformedInput, UnreadableFileIsIoError) {
  const core::Result<LoadedDesign> r = try_load_design_file("/nonexistent/x.design");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), core::ErrorCode::kIoError);
  EXPECT_NE(r.status().message().find("/nonexistent/x.design"), std::string::npos);
}

TEST(MalformedInput, TryLoadLayoutDiagnoses) {
  std::istringstream din(kSample);
  const LoadedDesign ld = try_load_design(din).value();
  {
    std::istringstream in("place CX1 1 2 0 0\n");
    EXPECT_TRUE(try_load_layout(in, ld.design).ok());
  }
  for (const char* bad :
       {"place NOPE 1 2 0 0\n", "place CX1 nan 2 0 0\n", "place CX1 1 2 0 9999\n",
        "component X 1 1 1\n", "place CX1 1 2\n"}) {
    std::istringstream in(bad);
    const core::Result<place::Layout> r = try_load_layout(in, ld.design);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), core::ErrorCode::kParseError) << bad;
    EXPECT_NE(r.status().message().find("line 1"), std::string::npos) << bad;
  }
}

// Property fuzz: random structured mutations of a valid design - truncated
// lines, hostile token substitutions, duplicated lines, random splices -
// must always come back "ok or kParseError". 500 seeds, each mutating 1-4
// spots.
TEST(MalformedInput, FuzzedMutationsNeverEscapeTheTaxonomy) {
  std::vector<std::string> lines;
  {
    std::istringstream in(kSample);
    std::string l;
    while (std::getline(in, l)) lines.push_back(l);
  }
  const std::vector<std::string> hostile = {
      "nan", "inf", "-inf", "1e999", "abc", "12abc", "", "=",
      "board=99999999999999999999", "rot=1,,2", "\t", "#",
  };

  num::Rng rng(20260805);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<std::string> mutated = lines;
    const std::size_t edits = 1 + rng.below(4);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t li = rng.below(mutated.size());
      switch (rng.below(4)) {
        case 0: {  // truncate the line at a random byte
          std::string& s = mutated[li];
          s = s.substr(0, rng.below(s.size() + 1));
          break;
        }
        case 1: {  // replace one whitespace token with a hostile one
          std::istringstream ts(mutated[li]);
          std::vector<std::string> toks;
          std::string t;
          while (ts >> t) toks.push_back(t);
          if (toks.empty()) break;
          toks[rng.below(toks.size())] = hostile[rng.below(hostile.size())];
          std::string joined;
          for (const std::string& tk : toks) joined += tk + " ";
          mutated[li] = joined;
          break;
        }
        case 2:  // duplicate a line (e.g. a component -> duplicate name)
          mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(li),
                         mutated[li]);
          break;
        default:  // splice a random line to another position
          mutated.push_back(mutated[li]);
          break;
      }
    }
    std::string text;
    for (const std::string& l : mutated) text += l + "\n";
    SCOPED_TRACE("iter " + std::to_string(iter));
    expect_parse_or_diagnose(text);
  }
}

// The io fault site turns numeric fields into deterministic parse faults:
// same seed, same failing line, run after run.
TEST(MalformedInput, InjectedIoFaultsAreDeterministicParseErrors) {
  struct Guard {
    ~Guard() { core::FaultInjector::instance().disarm(); }
  } guard;
  core::FaultInjector::instance().configure(core::FaultSite::kIo, 0.3, 42);

  const auto diagnose = [] {
    std::istringstream in(kSample);
    const core::Result<LoadedDesign> r = try_load_design(in);
    return r.ok() ? std::string("ok") : r.status().to_string();
  };
  const std::string first = diagnose();
  EXPECT_NE(first, "ok");  // 0.3 over this many numeric fields: fires
  EXPECT_NE(first.find("injected parse fault"), std::string::npos);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(diagnose(), first);

  core::FaultInjector::instance().disarm();
  EXPECT_EQ(diagnose(), "ok");
}

}  // namespace
}  // namespace emi::io
