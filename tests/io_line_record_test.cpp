// The line-record codec every line format shares: the tokenizer, the strict
// field grammar (readers accept exactly what the writers emit), the
// checksum envelope's line-numbered rejections and the line cursor.
#include "src/io/line_record.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace emi::io {
namespace {

TEST(SplitTokens, SplitsOnSpacesAndTabs) {
  const std::vector<std::string> t = split_tokens("  SUBMIT \t topology=buck  ");
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0], "SUBMIT");
  EXPECT_EQ(t[1], "topology=buck");
  EXPECT_TRUE(split_tokens("").empty());
  EXPECT_TRUE(split_tokens(" \t ").empty());
}

TEST(KvValue, FirstMatchWinsAndEmptyValuesAreValues) {
  const std::vector<std::string> t =
      split_tokens("SUBMIT topology=buck topology=boost client=");
  EXPECT_EQ(kv_value(t, "topology"), "buck");
  EXPECT_EQ(kv_value(t, "client"), "");
  EXPECT_FALSE(kv_value(t, "points").has_value());
  // A bare `topology` token (no '=') is not a field.
  EXPECT_FALSE(kv_value(split_tokens("STATUS topology"), "topology").has_value());
}

TEST(LineRecordFields, WritersEmitFixedWidthHexAndOneLine) {
  EXPECT_EQ(hex64(0), "0000000000000000");
  EXPECT_EQ(hex64(0x6a34fcece0e8e0f7ull), "6a34fcece0e8e0f7");
  EXPECT_EQ(double_bits(1.0), "3ff0000000000000");
  EXPECT_EQ(double_bits(-0.0), "8000000000000000");
  EXPECT_EQ(one_line("a\nb\r\nc"), "a b  c");
}

TEST(LineRecordFields, ReadersAcceptOnlyWhatWritersEmit) {
  std::uint64_t v = 7;
  EXPECT_TRUE(parse_u64("60", v));
  EXPECT_EQ(v, 60u);
  EXPECT_TRUE(parse_u64("18446744073709551615", v));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(parse_u64("1f", v, 16));
  EXPECT_EQ(v, 0x1fu);

  v = 7;
  for (const char* bad : {"", "+60", "-1", " 60", "60 ", "6 0", "60x", "0x1f", "1f",
                          "18446744073709551616"}) {
    EXPECT_FALSE(parse_u64(bad, v)) << "'" << bad << "'";
  }
  for (const char* bad : {"", "+1f", "-1", " 1f", "0x1f", "1g"}) {
    EXPECT_FALSE(parse_u64(bad, v, 16)) << "'" << bad << "'";
  }
  EXPECT_EQ(v, 7u);  // never written on failure

  EXPECT_TRUE(parse_hex64("6a34fcece0e8e0f7", v));
  EXPECT_EQ(v, 0x6a34fcece0e8e0f7ull);
  for (const char* bad : {"6a34fcece0e8e0f", "06a34fcece0e8e0f7", "0x34fcece0e8e0f7",
                          "+a34fcece0e8e0f7", " a34fcece0e8e0f7"}) {
    EXPECT_FALSE(parse_hex64(bad, v)) << "'" << bad << "'";
  }

  for (const double d : {0.0, -0.0, 1.0 / 3.0, 5e-324, -1e300,
                         std::numeric_limits<double>::infinity()}) {
    double back = 0.0;
    ASSERT_TRUE(parse_double_bits(double_bits(d), back));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back), std::bit_cast<std::uint64_t>(d));
  }
  double back = 0.0;
  EXPECT_FALSE(parse_double_bits("3ff", back));
  EXPECT_FALSE(parse_double_bits("+ff0000000000000", back));
}

TEST(LineRecordEnvelope, SealedPayloadRoundTrips) {
  const std::string payload = "MAGIC 1\nfield a b\n";
  const std::string sealed = seal(payload);
  EXPECT_EQ(sealed.rfind(payload + "checksum ", 0), 0u);
  EXPECT_EQ(sealed.size(), payload.size() + 9 + 16 + 1);
  const core::Result<std::string_view> opened = open_sealed(sealed, "test.stage");
  ASSERT_TRUE(opened.ok()) << opened.status().to_string();
  EXPECT_EQ(opened.value(), payload);
  // An empty payload seals and opens too.
  ASSERT_TRUE(open_sealed(seal(""), "test.stage").ok());
}

TEST(LineRecordEnvelope, RejectionsNameTheLineAndTheCallersStage) {
  const std::string sealed = seal("MAGIC 1\nfield a b\n");  // checksum on line 3
  const auto rejected = [](const std::string& text, const std::string& line,
                           const std::string& what) {
    const core::Result<std::string_view> r = open_sealed(text, "test.stage");
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.status().code(), core::ErrorCode::kParseError) << what;
    EXPECT_EQ(r.status().stage(), "test.stage") << what;
    EXPECT_EQ(r.status().message().rfind("line " + line + ": ", 0), 0u)
        << r.status().to_string();
    EXPECT_NE(r.status().message().find(what), std::string::npos)
        << r.status().to_string();
  };
  rejected("", "1", "empty");
  rejected(sealed.substr(0, sealed.rfind("checksum ")), "3", "missing checksum");
  rejected(sealed.substr(0, 12), "2", "missing checksum");
  rejected(sealed + "stray\n", "4", "trailing data");
  std::string flipped = sealed;
  flipped[2] ^= 0x20;
  rejected(flipped, "3", "mismatch");
  std::string bad_value = sealed;
  bad_value[bad_value.size() - 17] = 'x';
  rejected(bad_value, "3", "malformed checksum");
  rejected(sealed.substr(0, sealed.size() - 2) + "\n", "3", "malformed checksum");
}

TEST(LineCursor, NumbersLinesAndKeepsTheFreeTextTail) {
  const std::string text = "head 1 2\ndiag 3  two  spaced words \nbare\n";
  LineCursor r(text, "test.stage");
  std::vector<std::string> t;
  ASSERT_TRUE(r.next("head", 3, t).ok());
  EXPECT_EQ(r.line_no(), 1u);
  EXPECT_EQ(t, (std::vector<std::string>{"head", "1", "2"}));

  ASSERT_TRUE(r.next("diag", 2, t).ok());
  EXPECT_EQ(r.line_no(), 2u);
  EXPECT_EQ(r.rest(2), " two  spaced words ");  // one blank eaten, rest verbatim
  EXPECT_EQ(r.rest(1), "3  two  spaced words ");

  const core::Status st = r.next("diag", 1, t);
  EXPECT_EQ(st.code(), core::ErrorCode::kParseError);
  EXPECT_EQ(st.stage(), "test.stage");
  EXPECT_EQ(st.message(), "line 3: malformed 'diag' record");
  EXPECT_FALSE(r.rest(1).has_value());  // nothing after the last token
  EXPECT_TRUE(r.at_end());
  EXPECT_TRUE(r.expect_end("diag").ok());

  EXPECT_EQ(r.next("more", 1, t).message(),
            "line 4: unexpected end of file, expected more");

  LineCursor short_read("a\nb\n", "test.stage");
  ASSERT_TRUE(short_read.next("a", 1, t).ok());
  EXPECT_EQ(short_read.expect_end("a").message(), "line 2: trailing data after a");
  EXPECT_EQ(short_read.next("a", 2, t).message(), "line 2: malformed 'a' record");
}

TEST(LineRecordFile, MissingFileIsIoErrorTaggedWithTheStage) {
  const core::Result<std::string> r = read_file("/nonexistent/x.state", "test.stage");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), core::ErrorCode::kIoError);
  EXPECT_EQ(r.status().stage(), "test.stage");
}

}  // namespace
}  // namespace emi::io
