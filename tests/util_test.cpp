// Unit tests for the util library: PRNG determinism and distribution sanity,
// the wide FNV-1a fold against the byte loop, descriptive statistics, the
// §3.3 confidence calculator, and the JSON reader and writer.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/fnv1a_fold.hpp"
#include "util/json.hpp"
#include "util/json_value.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/text.hpp"

namespace cloudrtt::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{1234};
  Rng b{1234};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ForkByLabelIsStableAndIndependent) {
  const Rng root{99};
  Rng f1 = root.fork("alpha");
  Rng f2 = root.fork("alpha");
  Rng f3 = root.fork("beta");
  EXPECT_EQ(f1.next(), f2.next());
  Rng f4 = root.fork("alpha");
  EXPECT_NE(f4.next(), f3.next());
}

TEST(Rng, ForkByIndexIsStable) {
  const Rng root{7};
  Rng a = root.fork(std::uint64_t{5});
  Rng b = root.fork(std::uint64_t{5});
  Rng c = root.fork(std::uint64_t{6});
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{42};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowIsUnbiasedAcrossRange) {
  Rng rng{42};
  std::array<int, 10> histogram{};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++histogram[rng.below(10)];
  }
  for (const int count : histogram) {
    EXPECT_NEAR(count, kDraws / 10, kDraws / 100);
  }
}

TEST(Rng, BetweenCoversInclusiveBounds) {
  Rng rng{5};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng{42};
  std::vector<double> samples;
  samples.reserve(50000);
  for (int i = 0; i < 50000; ++i) samples.push_back(rng.normal());
  EXPECT_NEAR(mean(samples), 0.0, 0.02);
  EXPECT_NEAR(stddev(samples), 1.0, 0.02);
}

TEST(Rng, LognormalMedianIsCalibrated) {
  Rng rng{42};
  std::vector<double> samples;
  for (int i = 0; i < 40000; ++i) {
    samples.push_back(rng.lognormal_median(20.0, 0.5));
  }
  EXPECT_NEAR(median(samples), 20.0, 0.5);
}

TEST(Rng, LognormalSigmaControlsCv) {
  Rng rng{42};
  std::vector<double> samples;
  for (int i = 0; i < 40000; ++i) {
    samples.push_back(rng.lognormal_median(20.0, 0.5));
  }
  // Cv of lognormal = sqrt(exp(sigma^2) - 1) ~= 0.533 for sigma = 0.5.
  const auto cv = coefficient_of_variation(samples);
  ASSERT_TRUE(cv.has_value());
  EXPECT_NEAR(*cv, std::sqrt(std::exp(0.25) - 1.0), 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng{42};
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) samples.push_back(rng.exponential(7.0));
  EXPECT_NEAR(mean(samples), 7.0, 0.2);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng{42};
  const std::vector<double> weights{1.0, 3.0, 0.0, 6.0};
  std::array<int, 4> histogram{};
  for (int i = 0; i < 100000; ++i) {
    ++histogram[rng.weighted_index(weights)];
  }
  EXPECT_EQ(histogram[2], 0);
  EXPECT_NEAR(histogram[0], 10000, 800);
  EXPECT_NEAR(histogram[1], 30000, 1200);
  EXPECT_NEAR(histogram[3], 60000, 1500);
}

// fnv1a_fold must be fnv1a_accum bit for bit: every length up to 4,096 and
// the lengths around the kernel's 512-byte step, from every start offset
// 1-63 (so unaligned loads), over random bytes of all 256 values, from four
// start states, and folded in two pieces cut anywhere.
TEST(Fnv1aFold, EqualsByteLoop) {
  const bool wide = fnv1a_fold_wide_bytes(kFnv1aFoldBlock) != 0;
  std::cout << "fnv1a_fold runs "
            << (wide ? "the wide kernel"
                     : "the byte loop: this CPU lacks the kernel's features")
            << "\n";

  Rng rng{0xf01d};
  std::string buffer(64 + 65543, '\0');
  for (char& byte : buffer) byte = static_cast<char>(rng.below(256));
  std::set<char> values(buffer.begin(), buffer.begin() + 64 + 4096);
  ASSERT_EQ(values.size(), 256u);

  const std::array<std::uint64_t, 4> starts{kFnv1aBasis, 0, ~std::uint64_t{0},
                                            rng.next()};
  std::vector<std::size_t> lengths(4097);
  std::iota(lengths.begin(), lengths.end(), std::size_t{0});
  lengths.insert(lengths.end(), {511, 512, 513, 1023, 1024, 1025, 65543});
  std::size_t failures = 0;
  for (std::size_t n = 0; n < lengths.size(); ++n) {
    for (std::size_t s = 0; s < starts.size(); ++s) {
      const std::size_t offset = 1 + (n * starts.size() + s) % 63;
      const std::string_view bytes{buffer.data() + offset, lengths[n]};
      const std::uint64_t expected = fnv1a_accum(starts[s], bytes);
      const std::size_t cut = rng.below(bytes.size() + 1);
      const std::uint64_t split = fnv1a_fold(
          fnv1a_fold(starts[s], bytes.substr(0, cut)), bytes.substr(cut));
      if (fnv1a_fold(starts[s], bytes) == expected && split == expected) {
        continue;
      }
      ADD_FAILURE() << "length " << bytes.size() << ", offset " << offset
                    << ", start " << starts[s] << ", cut at " << cut;
      if (++failures == 10) return;
    }
  }
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, QuantileInterpolates) {
  const std::vector<double> values{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(values, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 10.0);
}

TEST(Stats, SummaryFields) {
  const Summary s = summarize({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_EQ(s.count, 10u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_DOUBLE_EQ(s.median, 5.5);
  EXPECT_NEAR(s.p25, 3.25, 1e-9);
  EXPECT_NEAR(s.p75, 7.75, 1e-9);
  EXPECT_DOUBLE_EQ(s.mean, 5.5);
}

TEST(Stats, CoefficientOfVariationEdgeCases) {
  EXPECT_FALSE(coefficient_of_variation({1.0}).has_value());
  EXPECT_FALSE(coefficient_of_variation({0.0, 0.0}).has_value());
  const auto cv = coefficient_of_variation({10.0, 10.0, 10.0});
  ASSERT_TRUE(cv.has_value());
  EXPECT_DOUBLE_EQ(*cv, 0.0);
}

TEST(Stats, EmpiricalCdfEvaluate) {
  const EmpiricalCdf cdf{{1.0, 2.0, 3.0, 4.0}};
  EXPECT_DOUBLE_EQ(cdf.evaluate(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.evaluate(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.evaluate(10.0), 1.0);
}

TEST(Stats, RequiredSampleSizeMatchesPaper) {
  // §3.3: z = 1.96, p = 0.5, eps = 2% -> 2401 measurements per country.
  EXPECT_EQ(required_sample_size(1.96, 0.5, 0.02), 2401u);
  EXPECT_EQ(required_sample_size(z_score_for_confidence(0.95), 0.5, 0.02),
            2401u);
}

TEST(Stats, RequiredSampleSizeRejectsBadInput) {
  EXPECT_THROW((void)required_sample_size(1.96, 0.5, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)required_sample_size(1.96, 1.5, 0.02),
               std::invalid_argument);
  EXPECT_THROW((void)z_score_for_confidence(0.42), std::invalid_argument);
}

TEST(Text, FormatDouble) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

TEST(Text, TableRendersAlignedColumns) {
  TextTable table;
  table.set_header({"a", "bbb"});
  table.add_row({"x", "y"});
  const std::string out = table.render();
  EXPECT_NE(out.find("a  bbb"), std::string::npos);
  EXPECT_NE(out.find("x  y"), std::string::npos);
}

TEST(Text, BarProportions) {
  EXPECT_EQ(bar(0.0, 10.0, 10), "..........");
  EXPECT_EQ(bar(10.0, 10.0, 10), "##########");
  EXPECT_EQ(bar(5.0, 10.0, 10), "#####.....");
}

TEST(Text, CsvQuoting) {
  std::ostringstream out;
  write_csv_row(out, {"plain", "with,comma", "with\"quote"});
  EXPECT_EQ(out.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

TEST(Text, ThresholdTableReportsFractions) {
  const std::vector<Series> series{{"s", {10.0, 20.0, 30.0, 40.0}}};
  const std::string out = render_threshold_table(series, {25.0});
  EXPECT_NE(out.find("50.0%"), std::string::npos);
}

// Property sweep: quantile_sorted is monotone in q for any sample set, and
// quantile() — a selection over an unsorted copy — returns its bits.
class QuantileMonotone : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantileMonotone, MonotoneInQ) {
  Rng rng{GetParam()};
  std::vector<double> values;
  const auto n = 1 + rng.below(200);
  for (std::uint64_t i = 0; i < n; ++i) values.push_back(rng.uniform(0, 1000));
  // Ties too: the selection must pick the same neighbour a sort would.
  for (std::uint64_t i = 0; i < n / 4; ++i) values.push_back(values[i]);
  const std::vector<double> unsorted = values;
  std::sort(values.begin(), values.end());
  double prev = quantile_sorted(values, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double current = quantile_sorted(values, q);
    EXPECT_GE(current, prev - 1e-12);
    EXPECT_EQ(quantile(unsorted, q), current) << "q=" << q;
    prev = current;
  }
  EXPECT_EQ(median(unsorted), quantile_sorted(values, 0.5));
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantileMonotone,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(JsonValue, ParsesScalarsContainersAndEscapes) {
  std::string error;
  const auto doc = JsonValue::parse(
      R"({"name": "a\"b\nA", "n": -2.5e2, "ok": true,
          "none": null, "list": [1, 2, 3]})",
      &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->string_at("name"), "a\"b\nA");
  EXPECT_DOUBLE_EQ(doc->number_at("n", 0.0), -250.0);
  EXPECT_TRUE(doc->find("ok")->as_bool());
  EXPECT_TRUE(doc->find("none")->is_null());
  ASSERT_EQ(doc->find("list")->items().size(), 3u);
  EXPECT_DOUBLE_EQ(doc->find("list")->items()[1].as_number(), 2.0);
  EXPECT_EQ(doc->find("absent"), nullptr);
}

TEST(JsonValue, PreservesMemberOrder) {
  const auto doc = JsonValue::parse(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->members().size(), 3u);
  EXPECT_EQ(doc->members()[0].first, "z");
  EXPECT_EQ(doc->members()[1].first, "a");
  EXPECT_EQ(doc->members()[2].first, "m");
}

TEST(JsonValue, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(JsonValue::parse("", &error).has_value());
  EXPECT_FALSE(JsonValue::parse("{", &error).has_value());
  EXPECT_FALSE(JsonValue::parse("[1, 2", &error).has_value());
  EXPECT_FALSE(JsonValue::parse(R"({"a": 1} trailing)", &error).has_value());
  EXPECT_FALSE(JsonValue::parse(R"("bad \x escape")", &error).has_value());
  EXPECT_FALSE(JsonValue::parse("{\"a\" 1}", &error).has_value());
  EXPECT_NE(error.find("offset"), std::string::npos);
}

TEST(JsonValue, RoundTripsJsonWriterOutput) {
  std::ostringstream out;
  {
    JsonWriter json{out};
    json.begin_object();
    json.field("pi", 3.25);
    json.field("label", "with \"quotes\" and\nnewline");
    json.key("nested");
    json.begin_array();
    json.value(1.0);
    json.value(2.0);
    json.end_array();
    json.end_object();
  }
  std::string error;
  const auto doc = JsonValue::parse(out.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_DOUBLE_EQ(doc->number_at("pi", 0.0), 3.25);
  EXPECT_EQ(doc->string_at("label"), "with \"quotes\" and\nnewline");
  EXPECT_EQ(doc->find("nested")->items().size(), 2u);
}

// ---------------------------------------------------------------------------
// Seeded damage: the trace-event and writer tests validate output with
// JsonValue::parse, so a malformed document must come back as nullopt with
// an error, never as a crash, or a broken writer would abort the suite
// instead of failing a test. Any byte string must come back as a value or
// as nullopt. The sanitizer build runs this under ASan+UBSan.

/// Valid documents that cover every value kind between them: nesting,
/// every escape (surrogate pairs included), exponents and the literals.
[[nodiscard]] const std::vector<std::string>& json_corpus() {
  static const std::vector<std::string> corpus = {
      R"({"null": null, "yes": true, "no": false, "zero": 0, "neg": -17,
          "real": 3.25, "exp": -2.5e2, "tiny": 1E-3, "big": 6.02e+23,
          "plain": "text", "escapes": "q\" b\\ s\/ \b\f\n\r\t",
          "bmp": "\u00e9\u4E2D", "pair": "\ud83d\ude00 after",
          "nested": {"a": [[], {}, [{"b": [null, [true, [false]]]}]]}})",
      R"({
  "schema": "cloudrtt-lint-baseline/1",
  "entries": [
    {
      "id": "9f3b2c1d00e4a7b6",
      "file": "src/measure/campaign.cpp",
      "rule": "unordered-iter",
      "snippet": "for (const auto& [k, v] : table_) {"
    },
    {
      "id": "0123456789abcdef",
      "file": "tools/cloudrtt_cli.cpp",
      "rule": "hot-alloc",
      "snippet": "std::string label = \"\\u00b5s\";"
    }
  ]
}
)",
      R"([1, -0.5, "\u0041", [], {}, [[[]]], {"k": {"k": {"k": null}}}])",
      "-123.456e-7",
      R"("lone \ud83d surrogate")",
  };
  return corpus;
}

/// Parse `text` and hold the reader to its contract: a value, or nullopt
/// with an "offset N: reason" error. Returns whether it parsed. The parse
/// reads a copy in a buffer of exactly its size, so that under ASan a read
/// past the end is reported rather than landing in the rest of the document.
bool expect_value_or_error(std::string_view text) {
  const auto copy = std::make_unique<char[]>(text.size());
  std::copy(text.begin(), text.end(), copy.get());
  std::string error;
  const std::optional<JsonValue> doc =
      JsonValue::parse(std::string_view{copy.get(), text.size()}, &error);
  if (!doc.has_value()) {
    EXPECT_NE(error.find("offset "), std::string::npos) << error;
  }
  return doc.has_value();
}

[[nodiscard]] std::string nested_arrays(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') + "0" +
         std::string(static_cast<std::size_t>(depth), ']');
}

[[nodiscard]] std::string nested_objects(int depth) {
  std::string text;
  for (int i = 0; i < depth; ++i) text += "{\"k\": ";
  text += "0";
  return text + std::string(static_cast<std::size_t>(depth), '}');
}

TEST(JsonValueDamage, CorpusParses) {
  for (const std::string& text : json_corpus()) {
    std::string error;
    EXPECT_TRUE(JsonValue::parse(text, &error).has_value()) << error;
  }
  const auto doc = JsonValue::parse(json_corpus()[0]);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string_at("bmp"), "\xc3\xa9\xe4\xb8\xad");
  EXPECT_DOUBLE_EQ(doc->number_at("big", 0.0), 6.02e23);
  const auto baseline = JsonValue::parse(json_corpus()[1]);
  ASSERT_TRUE(baseline.has_value());
  EXPECT_EQ(baseline->find("entries")->items().size(), 2u);
}

TEST(JsonValueDamage, EveryTruncationIsAValueOrAnError) {
  for (const std::string& text : json_corpus()) {
    for (std::size_t length = 0; length < text.size(); ++length) {
      SCOPED_TRACE(length);
      (void)expect_value_or_error(std::string_view{text}.substr(0, length));
    }
  }
}

TEST(JsonValueDamage, SeededByteDamageIsAValueOrAnError) {
  const std::vector<std::string>& corpus = json_corpus();
  constexpr std::uint64_t kSeeds = 2000;
  std::uint64_t parsed = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng{seed};
    std::string text = corpus[rng.below(corpus.size())];
    const std::uint64_t edits = 1 + rng.below(4);
    for (std::uint64_t edit = 0; edit < edits && !text.empty(); ++edit) {
      const std::size_t at = rng.below(text.size());
      const auto byte = static_cast<char>(rng.below(256));
      switch (rng.below(3)) {
        case 0: text[at] = byte; break;
        case 1: text.insert(at, 1, byte); break;
        default: text.erase(at, 1); break;
      }
    }
    if (expect_value_or_error(text)) ++parsed;
  }
  // The edits reach both outcomes: some keep a valid document (a changed
  // byte inside a string), most break it.
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, kSeeds / 2);
}

TEST(JsonValueDamage, NestingPastTheLimitIsRefused) {
  for (const auto& nest : {nested_arrays, nested_objects}) {
    EXPECT_TRUE(JsonValue::parse(nest(JsonValue::kMaxDepth)).has_value());
    for (const int depth : {JsonValue::kMaxDepth + 1, 100'000}) {
      SCOPED_TRACE(depth);
      std::string error;
      EXPECT_FALSE(JsonValue::parse(nest(depth), &error).has_value());
      EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
      // Cut short, the far-too-deep document is refused the same way.
      const std::string text = nest(depth);
      EXPECT_FALSE(expect_value_or_error(
          std::string_view{text}.substr(0, text.size() / 2)));
    }
  }
}

}  // namespace
}  // namespace cloudrtt::util
