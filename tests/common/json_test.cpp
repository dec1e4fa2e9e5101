#include "common/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace focv {
namespace {

TEST(Json, EscapeTable) {
  const struct {
    std::string in;
    std::string out;
  } rows[] = {
      {"\"", "\\\""},
      {"\\", "\\\\"},
      {"\n", "\\n"},
      {"\r", "\\r"},
      {"\t", "\\t"},
      {"\x01", "\\u0001"},
      {"\x1f", "\\u001f"},
      {std::string(1, '\0'), "\\u0000"},
      {"\x7f", "\x7f"},                       // DEL is not a JSON control character
      {"caf\xc3\xa9 \xe2\x82\xac", "caf\xc3\xa9 \xe2\x82\xac"},  // UTF-8 passes through
      {"plain / text", "plain / text"},
  };
  for (const auto& row : rows) {
    EXPECT_EQ(Json::escape(row.in), row.out) << row.out;
    // Every escaped string reads back to the original bytes.
    Json back;
    ASSERT_TRUE(Json::parse("\"" + row.out + "\"", back)) << row.out;
    EXPECT_EQ(back.as_string(), row.in);
  }
}

TEST(Json, FormatNumberIsPrintfSeventeenG) {
  const auto printf17 = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  std::vector<double> sample = {0.0,
                                -0.0,
                                1.0,
                                -1.5,
                                0.1,
                                1e300,
                                -1e-300,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::denorm_min(),
                                -std::numeric_limits<double>::denorm_min(),
                                2.2250738585072009e-308};  // largest subnormal
  Rng rng(20111);
  for (int i = 0; i < 2000; ++i) {
    // Random bit patterns cover every exponent, subnormals included.
    double v = 0.0;
    const std::uint64_t bits = rng.next_u64();
    std::memcpy(&v, &bits, sizeof v);
    if (std::isfinite(v)) sample.push_back(v);
    sample.push_back(rng.uniform(-1e6, 1e6));
  }
  for (const double v : sample) {
    ASSERT_EQ(Json::format_number(v), printf17(v));
    ASSERT_EQ(Json::dump_number(v), printf17(v));
    ASSERT_EQ(Json::number(v).dump(), printf17(v));
  }
  EXPECT_EQ(Json::format_number(1.0 / 3.0, 9), "0.333333333");
  EXPECT_EQ(Json::format_number(-0.0), "-0");
}

TEST(Json, NonFiniteNumbersDumpAsNull) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v : {inf, -inf, nan}) {
    EXPECT_EQ(Json::number(v).dump(), "null");
    EXPECT_EQ(Json::dump_number(v), "null");
    EXPECT_EQ(Json::dump_number(v, 9), "null");
  }
  Json doc = Json::object();
  doc.set("a", Json::number(nan));
  doc.set("b", Json::number(1.5));
  EXPECT_EQ(doc.dump(), "{\"a\":null,\"b\":1.5}");
  // format_number keeps printf's text for non-JSON users (CSV cells).
  EXPECT_EQ(Json::format_number(inf), "inf");
}

TEST(Json, NestingCapAcceptsDepth48RejectsDepth49) {
  const auto nested = [](int depth, const char* inner) {
    return std::string(static_cast<std::size_t>(depth), '[') + inner +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  ASSERT_EQ(Json::kMaxDepth, 48);
  Json out;
  std::string error;
  EXPECT_TRUE(Json::parse(nested(48, ""), out, &error)) << error;
  EXPECT_TRUE(Json::parse(nested(48, "1"), out, &error)) << error;
  EXPECT_FALSE(Json::parse(nested(49, ""), out, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  EXPECT_FALSE(Json::parse(nested(49, "1"), out));
  // Objects count the same as arrays.
  std::string objects;
  for (int i = 0; i < 48; ++i) objects += "{\"k\":";
  objects += "0" + std::string(48, '}');
  EXPECT_TRUE(Json::parse(objects, out));
  EXPECT_FALSE(Json::parse("[" + objects + "]", out));
}

TEST(Json, NumberGrammarIsStrict) {
  Json out;
  for (const char* good : {"0", "-0", "12", "-3.25", "1e3", "1E-3", "2.5e+10", "1e-400"}) {
    EXPECT_TRUE(Json::parse(good, out)) << good;
    EXPECT_TRUE(out.is_number()) << good;
  }
  for (const char* bad : {"NaN", "nan", "Infinity", "-Infinity", "inf", "0x10", "+5", "1e999",
                          "-1e999", "01", "1.", ".5", "1e", "1e+", "-", "--1"}) {
    EXPECT_FALSE(Json::parse(bad, out)) << bad;
  }
}

}  // namespace
}  // namespace focv
