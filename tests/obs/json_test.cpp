// The obs JSON reader and writer (obs/json.hpp): the nesting cap, \u
// escapes, the writer's number and string formats, and a seeded mutation
// case over every checked-in JSON document. The same mutations drive the
// readers built on top: metrics_from_json (through the exposition format)
// and the folded-profile parser and merge. obs_test runs under ASan in
// ph_sanitize_smoke, so an out-of-bounds read in a parser aborts there.
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/expo.hpp"
#include "obs/prof.hpp"
#include "sim/rng.hpp"

namespace ph::obs::json {
namespace {

std::string nested_arrays(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

TEST(JsonParse, NestingStopsAtTheCapWithANamedError) {
  Value value;
  std::string error;
  EXPECT_TRUE(parse(nested_arrays(kMaxDepth), value, &error)) << error;

  EXPECT_FALSE(parse(nested_arrays(kMaxDepth + 1), value, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;

  // Deep enough to overflow the stack of an uncapped recursive parser.
  EXPECT_FALSE(parse(nested_arrays(200'000), value, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  std::string objects;
  for (int i = 0; i < 200'000; ++i) objects += "{\"a\":";
  EXPECT_FALSE(parse(objects, value, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

// A \u escape decodes to UTF-8, so a string the writer escapes reads back
// as the same bytes (it used to come back as the six-character escape).
TEST(JsonParse, UnicodeEscapesDecodeToUtf8AndRoundTrip) {
  Value value;
  std::string error;
  ASSERT_TRUE(parse(R"("\b\f\u0001\u00e9\u20AC\ud83d\ude00\u0000")", value,
                    &error))
      << error;
  EXPECT_EQ(value.string,
            std::string("\b\f\x01\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80") + '\0');
  const std::string text = serialize(value);
  EXPECT_EQ(text, std::string("\"\\u0008\\u000c\\u0001\xc3\xa9\xe2\x82\xac"
                              "\xf0\x9f\x98\x80\\u0000\""));
  Value again;
  ASSERT_TRUE(parse(text, again, &error)) << error;
  EXPECT_EQ(again.string, value.string);

  EXPECT_FALSE(parse(R"("\u12g4")", value, &error));
  EXPECT_FALSE(parse(R"("\u12")", value, &error));
  EXPECT_FALSE(parse(R"("\ud83d\u0041")", value, &error));
}

TEST(JsonWrite, NumbersAndStringsUseTheExporterFormat) {
  const auto number = [](double v) {
    std::string out;
    append_number(out, v);
    return out;
  };
  EXPECT_EQ(number(42), "42");
  EXPECT_EQ(number(-3), "-3");
  EXPECT_EQ(number(0.5), "0.5");
  EXPECT_EQ(number(0.1), "0.10000000000000001");
  EXPECT_EQ(number(1e15), "1000000000000000");
  EXPECT_EQ(number(1e17), "1e+17");
  EXPECT_EQ(number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(number(std::numeric_limits<double>::quiet_NaN()), "null");

  std::string out;
  append_string(out, "a\"b\\c\nd\re\tf\x1f/\x7f");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\nd\\re\\tf\\u001f/\x7f\"");
}

// --- mutation fuzzing -------------------------------------------------------

struct Mutation {
  const char* name;
  void (*apply)(std::string& doc, sim::Rng& rng);
};

// gtest prints a parameter into the test's listed name; print the name,
// not the struct's bytes (which hold addresses).
void PrintTo(const Mutation& mutation, std::ostream* os) {
  *os << mutation.name;
}

std::size_t random_index(const std::string& doc, sim::Rng& rng) {
  return static_cast<std::size_t>(rng.uniform_int(0, doc.size() - 1));
}

const Mutation kMutations[] = {
    {"byte_flips",
     [](std::string& doc, sim::Rng& rng) {
       const int flips = 1 + static_cast<int>(rng.uniform_int(0, 7));
       for (int i = 0; i < flips; ++i) {
         doc[random_index(doc, rng)] ^=
             static_cast<char>(rng.uniform_int(1, 255));
       }
     }},
    {"truncation",
     [](std::string& doc, sim::Rng& rng) {
       doc.resize(static_cast<std::size_t>(rng.uniform_int(0, doc.size())));
     }},
    // Repeats one bracket 1-100 times in place: unbalanced documents, and
    // documents driven past kMaxDepth.
    {"duplicated_brackets",
     [](std::string& doc, sim::Rng& rng) {
       const std::size_t at = doc.find_first_of("[]{}", random_index(doc, rng));
       if (at == std::string::npos) return;
       const auto copies = static_cast<std::size_t>(rng.uniform_int(1, 100));
       doc.insert(at, copies, doc[at]);
     }},
};

/// Every file with extension `ext` under the source-relative `dirs`,
/// sorted by path.
std::vector<std::string> read_documents(std::initializer_list<const char*> dirs,
                                        const char* ext) {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  for (const char* dir : dirs) {
    for (const auto& entry :
         fs::directory_iterator(std::string(PH_SOURCE_DIR) + dir)) {
      if (entry.path().extension() == ext) paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> docs;
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    docs.push_back(text.str());
  }
  return docs;
}

std::vector<std::string> seed_documents() {
  return read_documents({"/bench/baselines", "/tests/obs/json_check/metrics"},
                        ".json");
}

/// Runs `check` on every document and on 60 mutations of each.
template <typename Check>
void fuzz(const std::vector<std::string>& docs, const Mutation& mutation,
          Check check) {
  sim::Rng rng(0x6a736f6e);
  for (const std::string& doc : docs) {
    ASSERT_NO_FATAL_FAILURE(check(doc));
    if (doc.empty()) continue;
    for (int round = 0; round < 60; ++round) {
      std::string mutated = doc;
      mutation.apply(mutated, rng);
      ASSERT_NO_FATAL_FAILURE(check(mutated)) << mutation.name << ":\n"
                                              << mutated;
    }
  }
}

// Whatever parses must serialize to text that parses back to the same
// text: serialize is a fixed point after one parse.
void expect_round_trip(const std::string& doc) {
  Value value;
  if (!parse(doc, value)) return;
  const std::string text = serialize(value);
  Value again;
  std::string error;
  ASSERT_TRUE(parse(text, again, &error)) << error << "\n" << text;
  ASSERT_EQ(serialize(again), text);
}

class JsonFuzz : public ::testing::TestWithParam<Mutation> {};

TEST_P(JsonFuzz, MutatedDocumentsNeverCrashAndRoundTrip) {
  const std::vector<std::string> docs = seed_documents();
  ASSERT_GE(docs.size(), 30u);  // the baselines plus the checker fixtures
  fuzz(docs, GetParam(), expect_round_trip);
}

// A metrics dump metrics_from_json accepts survives the exposition format:
// rendered, parsed back and rendered again, every counter, gauge, histogram
// count, sum, bound and bucket is unchanged, and the text is a fixed point
// (the exposition recomputes quantiles from the buckets).
void expect_metrics_survive_exposition(const std::string& doc) {
  Value root;
  if (!parse(doc, root)) return;
  const Result<ExpoDoc> metrics = metrics_from_json(root);
  if (!metrics.ok()) return;
  const std::string text = render_exposition(*metrics);
  const Result<ExpoDoc> again = parse_exposition(text);
  ASSERT_TRUE(again.ok()) << again.error().to_string() << "\n" << text;
  ASSERT_EQ(again->counters, metrics->counters);
  ASSERT_EQ(again->gauges, metrics->gauges);
  ASSERT_EQ(again->histograms.size(), metrics->histograms.size());
  for (const auto& [name, hist] : metrics->histograms) {
    const ExpoDoc::Hist& back = again->histograms.at(name);
    ASSERT_EQ(back.count, hist.count) << name;
    ASSERT_EQ(back.sum, hist.sum) << name;
    ASSERT_EQ(back.bounds, hist.bounds) << name;
    ASSERT_EQ(back.bucket_counts, hist.bucket_counts) << name;
  }
  ASSERT_EQ(render_exposition(*again), text);
}

TEST_P(JsonFuzz, MutatedMetricsDumpsSurviveTheExposition) {
  const std::vector<std::string> docs =
      read_documents({"/tests/obs/json_check/metrics"}, ".json");
  ASSERT_GE(docs.size(), 20u);
  fuzz(docs, GetParam(), expect_metrics_survive_exposition);
}

// A folded profile parse_folded accepts renders back to the same profile,
// and merging it with itself doubles every count.
void expect_folded_round_trip_and_merge(const std::string& doc) {
  const Result<prof::FoldedProfile> profile = prof::parse_folded(doc);
  if (!profile.ok()) return;
  const std::string text = prof::render_folded(*profile);
  const Result<prof::FoldedProfile> again = prof::parse_folded(text);
  ASSERT_TRUE(again.ok()) << again.error().to_string() << "\n" << text;
  ASSERT_EQ(*again, *profile);
  prof::FoldedProfile doubled = *profile;
  prof::merge_folded(doubled, doubled);
  ASSERT_EQ(doubled.size(), profile->size());
  for (const auto& [stack, count] : *profile) {
    ASSERT_EQ(doubled.at(stack), 2 * count) << stack;
  }
}

TEST_P(JsonFuzz, MutatedFoldedProfilesRoundTripAndMerge) {
  const std::vector<std::string> docs =
      read_documents({"/tests/obs/json_check/folded"}, ".folded");
  ASSERT_GE(docs.size(), 5u);
  fuzz(docs, GetParam(), expect_folded_round_trip_and_merge);
}

INSTANTIATE_TEST_SUITE_P(Mutations, JsonFuzz, ::testing::ValuesIn(kMutations),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace ph::obs::json
