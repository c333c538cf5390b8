// Golden-file round-trip of the lclbench-v3 snapshot schema: a
// committed snapshot (including the problem_sweep additions: top-level
// `problems`/`problem_seed` and the agreement metrics) must parse
// through src/core/json and re-serialize byte-identically via
// core::json::dump. Schema or parser/serializer drift is caught here,
// at test time, instead of surfacing as a confusing `--compare`
// failure against an old snapshot.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "core/json.hpp"

namespace lcl {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

TEST(JsonRoundTrip, GoldenSnapshotReserializesByteIdentically) {
  const std::string raw = read_file(LCL_GOLDEN_SNAPSHOT);
  ASSERT_FALSE(raw.empty());
  const core::json::Value v = core::json::parse(raw);
  EXPECT_EQ(core::json::dump(v), raw)
      << "schema / parser / serializer drift: regenerate the golden "
         "with core::json::dump over a fresh problem_sweep snapshot "
         "and review the diff";
}

TEST(JsonRoundTrip, GoldenCarriesTheProblemSweepSchema) {
  const core::json::Value v =
      core::json::parse(read_file(LCL_GOLDEN_SNAPSHOT));
  EXPECT_EQ(v.get_string("schema", ""), "lclbench-v3");
  EXPECT_NE(v.find("problems"), nullptr);
  EXPECT_NE(v.find("problem_seed"), nullptr);

  const core::json::Value* scenarios = v.find("scenarios");
  ASSERT_NE(scenarios, nullptr);
  ASSERT_TRUE(scenarios->is_array());
  bool found_sweep = false;
  for (const core::json::Value& s : scenarios->array) {
    if (s.get_string("name", "") != "problem_sweep") continue;
    found_sweep = true;
    const core::json::Value* metrics = s.find("metrics");
    ASSERT_NE(metrics, nullptr);
    const double total = metrics->get_number("problems_total", -1);
    const double agree = metrics->get_number("problems_agree", -1);
    EXPECT_GT(total, 0);
    EXPECT_GE(agree, 0);
    EXPECT_GE(metrics->get_number("problems_uncertified", -1), 0);
  }
  EXPECT_TRUE(found_sweep)
      << "golden snapshot must include a problem_sweep scenario";
}

TEST(JsonRoundTrip, DumpParseIsIdempotent) {
  const core::json::Value v = core::json::parse(
      R"({"a": 1, "b": [1.5, true, null, "x\ny"], "c": {"d": [], "e": {}},
          "big": 9007199254740992, "neg": -0.125})");
  const std::string once = core::json::dump(v);
  const std::string twice = core::json::dump(core::json::parse(once));
  EXPECT_EQ(once, twice);
}

TEST(JsonRoundTrip, IntegralDoublesPrintAsIntegers) {
  const core::json::Value v = core::json::parse("[3, 3.5, -0, 4503599627370496]");
  EXPECT_EQ(core::json::dump(v), "[\n  3,\n  3.5,\n  0,\n  4503599627370496\n]\n");
}

// JSON is the only perf snapshot format, so core::json dump/parse is the
// snapshot codec: every number a snapshot carries must survive it bit
// for bit.
core::json::Value number(double d) {
  core::json::Value n;
  n.type = core::json::Value::Type::kNumber;
  n.number = d;
  return n;
}

TEST(SnapshotCodec, NumbersRoundTripExactly) {
  // Integral window edges, 53-bit problem seeds, short decimals, and
  // doubles with no short decimal form.
  const core::json::Value v = core::json::parse(
      "[0, -1, 1, 9007199254740991, -9007199254740991, "
      "9007199254740992, 2614017550591987, 14.998, -0.125, 1408.4, "
      "0.000012, 3.5557e7, 1e300, -1e-300, 0.1, "
      "0.3333333333333333, 41.9634]");
  const std::string once = core::json::dump(v);
  const core::json::Value back = core::json::parse(once);
  EXPECT_EQ(core::json::dump(back), once);
  ASSERT_EQ(back.array.size(), v.array.size());
  for (std::size_t i = 0; i < v.array.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.array[i].number),
              std::bit_cast<std::uint64_t>(v.array[i].number))
        << core::json::dump(v.array[i]);
  }
}

TEST(SnapshotCodec, RawDoubleBitsSurvive) {
  for (const double d :
       {0.1, 1e-300, 1e300, 2.2250738585072014e-308, 0.30000000000000004,
        9007199254740991.0, 2614017550591987.0, 5e-324}) {
    const core::json::Value back =
        core::json::parse(core::json::dump(number(d)));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.number),
              std::bit_cast<std::uint64_t>(d))
        << core::json::dump(number(d));
  }
  // The one exception: -0.0 dumps as the integer 0 (see
  // IntegralDoublesPrintAsIntegers) and reads back as +0.0.
  const core::json::Value zero =
      core::json::parse(core::json::dump(number(-0.0)));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(zero.number),
            std::bit_cast<std::uint64_t>(0.0));
}

}  // namespace
}  // namespace lcl
