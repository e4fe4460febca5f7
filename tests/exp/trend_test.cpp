// Bench trend gate: JSON parsing, report flattening, tolerance matching,
// and regression comparison against committed baselines.
#include "rodain/exp/trend.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

namespace rodain::exp::trend {
namespace {

JsonValue parse_ok(std::string_view text) {
  auto parsed = parse_json(text);
  EXPECT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  return parsed.is_ok() ? std::move(parsed).value() : JsonValue{};
}

TEST(TrendJson, ParsesScalarsArraysObjects) {
  const JsonValue v = parse_ok(
      R"({"name":"x","n":-2.5,"ok":true,"none":null,)"
      R"("arr":[1,2,3],"nested":{"k":"v\n"}})");
  ASSERT_EQ(v.type, JsonValue::Type::kObject);
  ASSERT_NE(v.find("name"), nullptr);
  EXPECT_EQ(v.find("name")->string, "x");
  EXPECT_DOUBLE_EQ(v.find("n")->number, -2.5);
  EXPECT_TRUE(v.find("ok")->boolean);
  EXPECT_EQ(v.find("none")->type, JsonValue::Type::kNull);
  ASSERT_EQ(v.find("arr")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(v.find("arr")->array[1].number, 2.0);
  EXPECT_EQ(v.find("nested")->find("k")->string, "v\n");
}

TEST(TrendJson, DecodesUnicodeEscapesToUtf8) {
  // Regression: \uXXXX used to decode to '?', so a baseline whose label
  // round-tripped through an escape ("C5 µs") never compared equal to
  // the literal UTF-8 form a fresh bench run emits — the gate silently
  // reported the field as missing instead of comparing it.
  const JsonValue v = parse_ok(
      R"({"ascii":"\u0041\u0042","two":"\u00b5s","three":"a\u2192b"})");
  EXPECT_EQ(v.find("ascii")->string, "AB");
  EXPECT_EQ(v.find("two")->string, "\xC2\xB5s");       // U+00B5 micro sign
  EXPECT_EQ(v.find("three")->string, "a\xE2\x86\x92" "b");  // U+2192 arrow
}

TEST(TrendJson, EscapedBaselineLabelMatchesLiteralCurrentLabel) {
  const JsonValue baseline = parse_ok(
      R"({"bench":"b","results":[{"label":"p99 \u00b5s","v":1.0}]})");
  const JsonValue current = parse_ok(
      "{\"bench\":\"b\",\"results\":[{\"label\":\"p99 \xC2\xB5s\",\"v\":2.0}]}");
  const auto base_flat = flatten_report(baseline);
  const auto cur_flat = flatten_report(current);
  ASSERT_EQ(base_flat.size(), 1u);
  ASSERT_EQ(cur_flat.count(base_flat.begin()->first), 1u);
}

TEST(TrendJson, RejectsBadUnicodeEscapes) {
  EXPECT_FALSE(parse_json(R"({"k":"\u12"})").is_ok());    // truncated
  EXPECT_FALSE(parse_json(R"({"k":"\u12zq"})").is_ok());  // bad hex digit
  EXPECT_FALSE(parse_json(R"({"k":"\ud800"})").is_ok());  // lone surrogate
}

TEST(TrendJson, RejectsMalformedDocuments) {
  EXPECT_FALSE(parse_json("{\"a\":").is_ok());
  EXPECT_FALSE(parse_json("[1,2,]").is_ok());
  EXPECT_FALSE(parse_json("{\"a\":1} trailing").is_ok());
  EXPECT_FALSE(parse_json("nope").is_ok());
}

TEST(TrendFlatten, ReportScalarsAndLabeledResults) {
  const JsonValue report = parse_ok(R"({
    "bench": "failover",
    "git_describe": "v1",
    "total_ms": 42.5,
    "results": [
      {"label": "C1 kill", "downtime_ms": 12.0, "note": "text ignored"},
      {"label": "C2 restart", "downtime_ms": 7.0, "ttfc_ms": 3.5}
    ]
  })");
  const auto flat = flatten_report(report);
  EXPECT_DOUBLE_EQ(flat.at("failover.total_ms"), 42.5);
  EXPECT_DOUBLE_EQ(flat.at("failover.C1 kill.downtime_ms"), 12.0);
  EXPECT_DOUBLE_EQ(flat.at("failover.C2 restart.ttfc_ms"), 3.5);
  EXPECT_EQ(flat.count("failover.git_describe"), 0u);  // strings skipped
  EXPECT_EQ(flat.count("failover.C1 kill.note"), 0u);
}

TEST(TrendTolerance, ExactAndWildcardMatch) {
  const JsonValue doc = parse_ok(R"({"fields": {
    "b.case.downtime_ms": {"rel": 0.1, "direction": "up"},
    "b.*.lost_txns": {"abs": 0.5, "direction": "up"},
    "b.total_ms": {"rel": 0.2}
  }})");
  auto parsed = parse_tolerances(doc);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const auto& tol = parsed.value();

  const Tolerance* exact = match_tolerance(tol, "b.case.downtime_ms");
  ASSERT_NE(exact, nullptr);
  EXPECT_DOUBLE_EQ(exact->rel, 0.1);
  EXPECT_EQ(exact->direction, Tolerance::Direction::kUp);

  // "b.<any label>.lost_txns" matches through the wildcard.
  EXPECT_NE(match_tolerance(tol, "b.C5 crash mid-batch.lost_txns"), nullptr);
  EXPECT_EQ(match_tolerance(tol, "b.case.other_field"), nullptr);
  EXPECT_EQ(match_tolerance(tol, "b.total_ms")->direction,
            Tolerance::Direction::kBoth);
}

TEST(TrendTolerance, RejectsBadDirection) {
  const JsonValue doc =
      parse_ok(R"({"fields": {"a.b": {"rel": 0.1, "direction": "sideways"}}})");
  EXPECT_FALSE(parse_tolerances(doc).is_ok());
}

std::map<std::string, Tolerance> one_tolerance(
    const std::string& key, double rel, double abs,
    Tolerance::Direction dir) {
  std::map<std::string, Tolerance> tol;
  Tolerance t;
  t.rel = rel;
  t.abs = abs;
  t.direction = dir;
  tol[key] = t;
  return tol;
}

TEST(TrendCompare, WithinToleranceAndRegression) {
  const std::map<std::string, double> baseline{{"b.x.ms", 100.0}};
  const auto tol = one_tolerance("b.x.ms", 0.10, 0.0,
                                 Tolerance::Direction::kUp);
  // +9% is inside the 10% band.
  EXPECT_TRUE(compare_reports(baseline, {{"b.x.ms", 109.0}}, tol).ok);
  // +15% regresses.
  const TrendResult bad = compare_reports(baseline, {{"b.x.ms", 115.0}}, tol);
  EXPECT_FALSE(bad.ok);
  ASSERT_EQ(bad.compared.size(), 1u);
  EXPECT_TRUE(bad.compared[0].regressed);
  // direction=up: an improvement (lower) never fails.
  EXPECT_TRUE(compare_reports(baseline, {{"b.x.ms", 1.0}}, tol).ok);
}

TEST(TrendCompare, DirectionDownAndBoth) {
  const std::map<std::string, double> baseline{{"b.tput", 1000.0}};
  const auto down = one_tolerance("b.tput", 0.10, 0.0,
                                  Tolerance::Direction::kDown);
  EXPECT_TRUE(compare_reports(baseline, {{"b.tput", 950.0}}, down).ok);
  EXPECT_FALSE(compare_reports(baseline, {{"b.tput", 800.0}}, down).ok);
  EXPECT_TRUE(compare_reports(baseline, {{"b.tput", 2000.0}}, down).ok);

  const auto both = one_tolerance("b.tput", 0.0, 50.0,
                                  Tolerance::Direction::kBoth);
  EXPECT_TRUE(compare_reports(baseline, {{"b.tput", 1049.0}}, both).ok);
  EXPECT_FALSE(compare_reports(baseline, {{"b.tput", 1051.0}}, both).ok);
  EXPECT_FALSE(compare_reports(baseline, {{"b.tput", 949.0}}, both).ok);
}

TEST(TrendCompare, MissingGatedFieldIsARegression) {
  const std::map<std::string, double> baseline{{"b.x.ms", 10.0}};
  const auto tol =
      one_tolerance("b.x.ms", 0.5, 0.0, Tolerance::Direction::kUp);
  const TrendResult r = compare_reports(baseline, {}, tol);
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.compared.size(), 1u);
  EXPECT_TRUE(r.compared[0].missing);
}

TEST(TrendCompare, UngatedFieldsAreIgnored) {
  // A wildly different ungated field must not trip the gate.
  const std::map<std::string, double> baseline{{"b.x.ms", 10.0},
                                               {"b.noise", 1.0}};
  const std::map<std::string, double> current{{"b.x.ms", 10.0},
                                              {"b.noise", 99999.0}};
  const auto tol =
      one_tolerance("b.x.ms", 0.1, 0.0, Tolerance::Direction::kUp);
  EXPECT_TRUE(compare_reports(baseline, current, tol).ok);
}

class TrendDirsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process and case: ctest -j runs each case in its own
    // process, and a shared directory would race.
    root_ = std::filesystem::temp_directory_path() /
            ("rodain_trend_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
    base_ = root_ / "baseline";
    cur_ = root_ / "current";
    std::filesystem::create_directories(base_);
    std::filesystem::create_directories(cur_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  static void write(const std::filesystem::path& p, const std::string& text) {
    std::ofstream out(p);
    out << text;
  }

  std::filesystem::path root_, base_, cur_;
};

TEST_F(TrendDirsTest, CheckTrendPassesAndFails) {
  write(base_ / "BENCH_failover.json",
        R"({"bench":"failover","results":[{"label":"C1","ms":10.0}]})");
  write(root_ / "tolerances.json",
        R"({"fields":{"failover.C1.ms":{"rel":0.2,"direction":"up"}}})");

  write(cur_ / "BENCH_failover.json",
        R"({"bench":"failover","results":[{"label":"C1","ms":11.0}]})");
  auto ok = check_trend(base_.string(), cur_.string(),
                        (root_ / "tolerances.json").string());
  ASSERT_TRUE(ok.is_ok()) << ok.status().to_string();
  EXPECT_TRUE(ok.value().ok);

  write(cur_ / "BENCH_failover.json",
        R"({"bench":"failover","results":[{"label":"C1","ms":20.0}]})");
  auto bad = check_trend(base_.string(), cur_.string(),
                         (root_ / "tolerances.json").string());
  ASSERT_TRUE(bad.is_ok());
  EXPECT_FALSE(bad.value().ok);
}

TEST_F(TrendDirsTest, MissingCurrentBenchFileFailsTheGate) {
  write(base_ / "BENCH_failover.json", R"({"bench":"failover","x":1.0})");
  write(root_ / "tolerances.json",
        R"({"fields":{"failover.x":{"rel":0.1}}})");
  auto r = check_trend(base_.string(), cur_.string(),
                       (root_ / "tolerances.json").string());
  ASSERT_TRUE(r.is_ok());
  EXPECT_FALSE(r.value().ok);
  EXPECT_FALSE(r.value().notes.empty());
}

TEST_F(TrendDirsTest, EmptyBaselineDirIsAnError) {
  write(root_ / "tolerances.json", R"({"fields":{}})");
  EXPECT_FALSE(check_trend(base_.string(), cur_.string(),
                           (root_ / "tolerances.json").string())
                   .is_ok());
}

}  // namespace
}  // namespace rodain::exp::trend
