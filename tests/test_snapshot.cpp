// The .lclb binary snapshot codec: lossless round-trips through the
// core::json::dump golden path (property: dump(decode(encode(v))) ==
// dump(v), including the 53-bit integral problem seeds), the committed
// golden .lclb pinned byte-for-byte against its JSON twin, truncation /
// corruption error paths, and the headline size contract — the binary
// form of the committed BENCH_all snapshot is at least 5x smaller than
// the JSON with zero information loss.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/json.hpp"
#include "core/snapshot.hpp"

namespace lcl {
namespace {

namespace json = core::json;
namespace snap = core::snapshot;

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

/// The codec's round-trip contract at the dump level.
void expect_lossless(const std::string& json_text) {
  const json::Value v = json::parse(json_text);
  const std::string bytes = snap::encode(v);
  EXPECT_EQ(json::dump(snap::decode(bytes)), json::dump(v)) << json_text;
}

TEST(SnapshotCodec, ScalarsAndContainersRoundTrip) {
  expect_lossless("null");
  expect_lossless("true");
  expect_lossless("[false, null, true]");
  expect_lossless("\"\"");
  expect_lossless(R"("esc \"\\\n\t done")");
  expect_lossless("[]");
  expect_lossless("{}");
  expect_lossless(R"({"a": {"b": [{"c": []}, {}]}, "d": "a"})");
}

TEST(SnapshotCodec, NumbersRoundTripExactly) {
  // Integral window edges, 53-bit problem seeds, short decimals that
  // take the scaled-varint path, and doubles that need raw bits.
  expect_lossless(
      "[0, -1, 1, 9007199254740991, -9007199254740991, "
      "9007199254740992, 2614017550591987, 14.998, -0.125, 1408.4, "
      "0.000012, 3.5557e7, 1e300, -1e-300, 0.1, "
      "0.3333333333333333, 41.9634]");
}

TEST(SnapshotCodec, RawDoubleBitsSurvive) {
  for (const double d :
       {-0.0, 0.1, 1e-300, 1e300, 2.2250738585072014e-308,
        0.30000000000000004}) {
    json::Value v;
    v.type = json::Value::Type::kNumber;
    v.number = d;
    const json::Value back = snap::decode(snap::encode(v));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back.number),
              std::bit_cast<std::uint64_t>(d));
  }
}

/// A schema-faithful run array (the shape write_json emits), with the
/// optional columns varying per row: build_ms on some rows, a non-ok
/// status with check_reason on one.
const char* kRunArrayJson = R"([
  {"scale": 64, "n": 67516, "node_averaged": 14.998, "worst_case": 83,
   "term_p50": 7, "term_p90": 83, "term_p99": 83,
   "term_hist": [0, 0, 0, 45012, 15004, 0, 0, 7500],
   "reps": 1, "reps_ok": 1, "na_stddev": 0, "na_min": 14.998,
   "na_max": 14.998, "status": "ok", "valid": true},
  {"scale": 192, "n": 64303, "node_averaged": 24.7274, "worst_case": 217,
   "build_ms": 1.25, "term_p50": 11, "term_p90": 14, "term_p99": 217,
   "term_hist": [0, 0, 0, 0, 60018, 0, 0, 0, 4285],
   "reps": 2, "reps_ok": 2, "na_stddev": 0.05, "na_min": 24.7,
   "na_max": 24.75, "status": "ok", "valid": true},
  {"scale": 576, "n": 62548, "node_averaged": 42.1818, "worst_case": 611,
   "term_p50": 19, "term_p90": 24, "term_p99": 611,
   "term_hist": [0, 0, 0, 0, 15012, 45036],
   "reps": 1, "reps_ok": 0, "na_stddev": 0, "na_min": 42.1818,
   "na_max": 42.1818, "status": "truncated", "valid": false,
   "check_reason": "hit max_rounds 1000"}
])";

TEST(SnapshotCodec, RunColumnarRoundTripsWithOptionalColumns) {
  expect_lossless(kRunArrayJson);
}

TEST(SnapshotCodec, RunColumnarActuallyCompresses) {
  const json::Value v = json::parse(kRunArrayJson);
  const std::string bytes = snap::encode(v);
  // Well under the source text; the exact ratio is pinned by the
  // BENCH_all contract below, this is the smoke version.
  EXPECT_LT(bytes.size() * 3, std::string(kRunArrayJson).size());
}

TEST(SnapshotCodec, NonCanonicalRunArraysFallBackLosslessly) {
  // Reordered keys, unknown keys, and mixed element shapes must not be
  // forced through the columnar path — only stay lossless.
  expect_lossless(R"([{"n": 5, "scale": 10}])");           // reordered
  expect_lossless(R"([{"scale": 10, "extra": 1}])");       // unknown key
  expect_lossless(R"([{"scale": 10}, 7, "x"])");           // mixed types
  expect_lossless(R"([{"scale": "ten"}])");                // wrong kind
  expect_lossless(R"([{"valid": true}, {"valid": false}])");
}

TEST(SnapshotCodec, GoldenBinaryTwinMatchesGoldenJson) {
  // The committed .lclb must decode to exactly the committed JSON's
  // dump (which the json round-trip suite pins as dump-canonical), and
  // the encoder must reproduce the committed bytes — any wire-format
  // change shows up here as a golden diff plus a format-version review.
  const std::string golden_json = read_file(LCL_GOLDEN_SNAPSHOT);
  const std::string golden_lclb = read_file(LCL_GOLDEN_LCLB);
  ASSERT_FALSE(golden_json.empty());
  ASSERT_FALSE(golden_lclb.empty());
  const json::Value v = json::parse(golden_json);
  EXPECT_EQ(json::dump(snap::decode(golden_lclb)), golden_json);
  EXPECT_EQ(snap::encode(v), golden_lclb)
      << "encoder drift: regenerate tests/golden/lclbench_v3_golden.lclb "
         "with `lclbench --export` and bump kFormatVersion if decode of "
         "old bytes changed";
}

TEST(SnapshotCodec, BenchAllIsLosslessAndFiveTimesSmaller) {
  const std::string json_text = read_file(LCL_BENCH_ALL_JSON);
  ASSERT_FALSE(json_text.empty());
  const json::Value v = json::parse(json_text);
  const std::string bytes = snap::encode(v);
  // Zero information loss at the dump level...
  EXPECT_EQ(json::dump(snap::decode(bytes)), json::dump(v));
  // ...at a >= 5x size reduction (the headline contract).
  EXPECT_LE(bytes.size() * 5, json_text.size())
      << "binary " << bytes.size() << " bytes vs JSON "
      << json_text.size();
}

TEST(SnapshotCodec, EveryTruncationThrows) {
  const std::string bytes = snap::encode(json::parse(kRunArrayJson));
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_THROW((void)snap::decode(std::string_view(bytes).substr(0, cut)),
                 std::runtime_error)
        << "prefix of " << cut << " bytes decoded";
  }
}

TEST(SnapshotCodec, CorruptStreamsThrowInsteadOfMisparsing) {
  const std::string good = snap::encode(json::parse(R"({"a": [1, 2]})"));
  // Bad magic.
  std::string bad = good;
  bad[0] = 'X';
  EXPECT_THROW((void)snap::decode(bad), std::runtime_error);
  // Unsupported format version.
  bad = good;
  bad[4] = static_cast<char>(snap::kFormatVersion + 1);
  EXPECT_THROW((void)snap::decode(bad), std::runtime_error);
  // Unknown value tag.
  bad = good;
  bad[5] = '\x7F';
  EXPECT_THROW((void)snap::decode(bad), std::runtime_error);
  // Trailing garbage after a complete document.
  bad = good + "tail";
  EXPECT_THROW((void)snap::decode(bad), std::runtime_error);
  // A count that overruns the remaining payload must be rejected
  // before any allocation sized by it.
  EXPECT_THROW(
      (void)snap::decode(std::string("LCLB\x01\x06\xff\xff\xff\x7f", 10)),
      std::runtime_error);
}

TEST(SnapshotCodec, FileHelpersSniffAndRoundTrip) {
  const json::Value v = json::parse(kRunArrayJson);
  const std::string dir = ::testing::TempDir();
  const std::string lclb_path = dir + "codec_rt.lclb";
  const std::string json_path = dir + "codec_rt.json";
  snap::write_file(lclb_path, v);
  {
    std::ofstream f(json_path, std::ios::binary);
    f << json::dump(v);
  }
  EXPECT_TRUE(snap::is_snapshot_file(lclb_path));
  EXPECT_FALSE(snap::is_snapshot_file(json_path));
  EXPECT_FALSE(snap::is_snapshot_file(dir + "missing.lclb"));
  // load_any dispatches on the sniffed magic, not the extension.
  EXPECT_EQ(json::dump(snap::load_any(lclb_path)), json::dump(v));
  EXPECT_EQ(json::dump(snap::load_any(json_path)), json::dump(v));
  EXPECT_EQ(json::dump(snap::read_file(lclb_path)), json::dump(v));
  EXPECT_THROW((void)snap::read_file(dir + "missing.lclb"),
               std::runtime_error);
  EXPECT_THROW((void)snap::read_file(json_path), std::runtime_error);
}

}  // namespace
}  // namespace lcl
