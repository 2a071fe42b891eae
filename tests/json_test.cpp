// JSON codec tests: parse/serialize round trips, RFC 8259 strictness,
// shortest round-trip doubles, the quote/parse inverse property over
// arbitrary bytes, and a seeded mutation run over both JSON decoders
// (json::parse and obs::merge_chrome_traces). The byte pins fix what
// the JSON writers built on json::quote (metrics snapshot, JsonSink,
// bench JsonReport) emit for strings holding quotes, backslashes and
// control bytes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "api/version.hpp"
#include "bench/bench_util.hpp"
#include "engine/report.hpp"
#include "json/json.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "xoridx/serve.hpp"

namespace xoridx {
namespace {

// Every pinned string carries ", \, \n, \t and 0x01.
const std::string tricky = "q\"b\\n\nt\tc\x01.";
const std::string tricky_json = R"("q\"b\\n\nt\tc\u0001.")";

TEST(BytePin, SnapshotWriteJson) {
  obs::Snapshot snap;
  snap.counters.emplace_back(tricky, 7);
  snap.gauges.emplace_back("g" + tricky, -3);
  obs::HistogramSnapshot h;
  h.count = 2;
  h.sum = 5;
  h.max = 4;
  h.buckets[2] = 1;
  h.buckets[3] = 1;
  snap.histograms.emplace_back("h" + tricky, h);
  std::ostringstream os;
  snap.write_json(os);
  EXPECT_EQ(os.str(),
            "{\"xoridx\": \"" XORIDX_VERSION "\",\n \"metrics\": [\n"
            "  {\"name\": " + tricky_json +
                ", \"type\": \"counter\", \"value\": 7},\n"
                "  {\"name\": \"g" + tricky_json.substr(1) +
                ", \"type\": \"gauge\", \"value\": -3},\n"
                "  {\"name\": \"h" + tricky_json.substr(1) +
                ", \"type\": \"histogram\", \"count\": 2, \"sum\": 5, "
                "\"max\": 4, \"buckets\": [0, 0, 1, 1, 0, 0, 0, 0, 0, 0, "
                "0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, "
                "0, 0, 0]}\n ]}\n");
}

TEST(BytePin, JsonSinkRow) {
  engine::JobResult r;
  r.trace_name = tricky;
  r.geometry = cache::CacheGeometry(1024, 4);
  r.label = "l" + tricky;
  r.kind = "evaluate";
  r.accesses = 100;
  r.baseline_misses = 40;
  r.misses = 30;
  r.function_description = "f" + tricky;
  std::ostringstream os;
  engine::JsonSink sink(os);
  sink.begin();
  sink.write(r);
  sink.end();
  // The function text is flattened first: its newline becomes "; ".
  EXPECT_EQ(os.str(),
            "[\n  {\"trace\":" + tricky_json +
                ",\"cache_bytes\":1024,\"geometry\":\"1 KB/4B/1-way\""
                ",\"label\":\"l" + tricky_json.substr(1) +
                ",\"kind\":\"evaluate\",\"accesses\":100"
                ",\"baseline_misses\":40,\"misses\":30"
                ",\"estimated_misses\":0,\"reverted\":false"
                ",\"percent_removed\":25.0000,\"compulsory\":0"
                ",\"capacity\":0,\"conflict\":0"
                ",\"function\":\"fq\\\"b\\\\n; t\\tc\\u0001.\"}\n]\n");
}

TEST(BytePin, BenchJsonReportWrite) {
  bench::JsonReport report("bench" + tricky);
  report.row(tricky).num("n", 3).str("s" + tricky, tricky);
  std::ostringstream os;
  report.write(os);
  EXPECT_EQ(os.str(),
            "{\"benchmark\": \"bench" + tricky_json.substr(1) +
                ",\n \"rows\": [\n  {\"name\": " + tricky_json +
                ", \"n\": 3, \"s" + tricky_json.substr(1) + ": " +
                tricky_json + "}\n ]}\n");
}

TEST(Json, ParsesAndSerializesRoundTrip) {
  const std::string text =
      R"({"a":1,"b":-2.5,"c":"x\n\"y\"","d":[true,false,null],"e":{}})";
  const auto parsed = serve::parse_json(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->find("a")->as_int(), 1);
  EXPECT_DOUBLE_EQ(parsed->find("b")->as_double(), -2.5);
  EXPECT_EQ(parsed->find("c")->as_string(), "x\n\"y\"");
  EXPECT_EQ(parsed->find("d")->items().size(), 3u);
  EXPECT_EQ(parsed->serialize(), text);
}

TEST(Json, ParsesUnicodeEscapesIncludingSurrogatePairs) {
  const auto parsed = serve::parse_json(R"("\u0041\u00e9\ud83d\ude00")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->as_string(), "A\xC3\xA9\xF0\x9F\x98\x80");
}

TEST(Json, RejectsMalformedInputWithByteOffsets) {
  for (const char* bad :
       {"{", "[1,]", "{\"a\":1,\"a\":2}", "tru", "1.2.3", "\"unterminated",
        "{\"a\"}", "[1] trailing", "\"\\u12\"", "\"\\ud800\"",
        // RFC 8259 number grammar: digits on both sides of '.', no
        // leading zeros.
        "1.", ".5", "-.5", "01", "-01", "1.e5",
        // Well-formed but out of range.
        "1e400", "-99999999999999999999"}) {
    const auto parsed = serve::parse_json(bad);
    EXPECT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), api::StatusCode::parse_error) << bad;
    EXPECT_NE(parsed.status().message().find(" at byte "), std::string::npos)
        << bad << ": " << parsed.status().message();
  }
}

TEST(Json, NeverEmitsRawNewlines) {
  serve::JsonValue obj = serve::JsonValue::object();
  obj.set("text", std::string("line1\nline2\r\ttab"));
  const std::string wire = obj.serialize();
  EXPECT_EQ(wire.find('\n'), std::string::npos);
  EXPECT_EQ(wire, R"({"text":"line1\nline2\r\ttab"})");
}

TEST(Json, SerializesDoublesInShortestRoundTripForm) {
  const struct {
    double value;
    const char* text;
  } cases[] = {{0.1, "0.1"},
               {12.345, "12.345"},
               {1e-7, "1e-07"},
               {5e-324, "5e-324"},
               {1.7976931348623157e308, "1.7976931348623157e+308"}};
  for (const auto& c : cases) {
    EXPECT_EQ(json::Value(c.value).serialize(), c.text);
    const auto back = json::parse(c.text);
    ASSERT_TRUE(back.ok()) << c.text << ": " << back.status().to_string();
    EXPECT_EQ(back->as_double(), c.value) << c.text;
  }
}

TEST(JsonQuote, ParseInvertsQuoteForAnyBytes) {
  std::vector<std::string> inputs = {""};
  std::string every_byte;
  for (int b = 0; b < 256; ++b) every_byte += static_cast<char>(b);
  inputs.push_back(every_byte);
  // Random strings drawn half from the bytes that need care (every
  // control byte, '"', '\\', 0x7f, bytes >= 0x80) and half uniformly.
  std::string special = "\"\\\x7f\x80\xc3\xa9\xff";
  for (int b = 0; b < 0x20; ++b) special += static_cast<char>(b);
  std::mt19937_64 rng(16);
  for (int i = 0; i < 2000; ++i) {
    std::string s(rng() % 48, '\0');
    for (char& c : s)
      c = rng() % 2 == 0 ? special[rng() % special.size()]
                         : static_cast<char>(rng());
    inputs.push_back(std::move(s));
  }
  for (const std::string& s : inputs) {
    const std::string quoted = json::quote(s);
    for (const char c : quoted)
      ASSERT_GE(static_cast<unsigned char>(c), 0x20) << quoted;
    const auto parsed = json::parse(quoted);
    ASSERT_TRUE(parsed.ok()) << quoted << ": " << parsed.status().to_string();
    ASSERT_TRUE(parsed->is_string()) << quoted;
    EXPECT_EQ(parsed->as_string(), s) << quoted;
  }
}

// ------------------------------------------------------ mutation run

// Seeds: NDJSON requests as serve_test sends them, and a Chrome trace
// in the shape obs_test merges.
const std::vector<std::string>& seeds() {
  static const std::vector<std::string> all = {
      R"({"cmd":"explore","id":"r1",)"
      R"("traces":[{"workload":"adpcm_dec","scale":"small"}],)"
      R"("caches":[1024],"strategies":["base","perm:2"]})",
      R"({"cmd":"explore","id":"r","traces":[],"caches":[0],)"
      R"("strategies":["base"],"hashed_bits":16,"threads":0})",
      R"({"cmd":"explore","id":"r",)"
      R"("traces":[{"path":"/t.bin","mmap":true,"name":"t"}],)"
      R"("geometries":[{"size":1024,"block":4,"assoc":1}],)"
      R"("strategies":["base"]})",
      R"({"cmd":"cancel","id":"r1"})",
      R"({"cmd":"status"})",
      "{\"displayTimeUnit\": \"ms\",\n \"traceEvents\": [\n"
      "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 4242, "
      "\"args\": {\"name\": \"shard 1/2\"}},\n"
      "  {\"name\": \"slice\", \"cat\": \"shard\", \"ph\": \"X\", "
      "\"ts\": 10.125, \"dur\": 5, \"pid\": 4242, \"tid\": 1, "
      "\"args\": {\"detail\": \"b \\\"q\\\" {\\u00e9\"}}\n ]}\n",
  };
  return all;
}

/// One seed after a byte flip, truncation, splice or 10,000-deep '['.
std::string mutate(std::mt19937_64& rng) {
  const std::vector<std::string>& all = seeds();
  std::string s = all[rng() % all.size()];
  switch (rng() % 4) {
    case 0:
      for (std::uint64_t n = 1 + rng() % 4; n > 0; --n)
        s[rng() % s.size()] = static_cast<char>(rng());
      break;
    case 1:
      s.resize(rng() % (s.size() + 1));
      break;
    case 2: {
      const std::string& other = all[rng() % all.size()];
      s = s.substr(0, rng() % (s.size() + 1)) +
          other.substr(rng() % (other.size() + 1));
      break;
    }
    default:
      s.insert(rng() % (s.size() + 1), std::string(10000, '['));
      break;
  }
  return s;
}

TEST(JsonMutation, DecodersReturnAStatusOrAValue) {
  const std::string dir = std::filesystem::temp_directory_path().string();
  const std::string tag = std::to_string(::getpid());
  const std::string seed_path = dir + "/xoridx_json_seed_" + tag + ".json";
  const std::string input_path = dir + "/xoridx_json_mutant_" + tag + ".json";
  std::ofstream(seed_path) << seeds().back();

  std::mt19937_64 rng(20061016);
  int parsed_ok = 0;
  int merged_ok = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string input = mutate(rng);
    const auto parsed = json::parse(input);
    if (parsed.ok()) {
      ++parsed_ok;
      // A parsed value re-serializes to text that parses to itself.
      const std::string text = parsed->serialize();
      const auto again = json::parse(text);
      ASSERT_TRUE(again.ok()) << text;
      ASSERT_EQ(again->serialize(), text);
    } else {
      ASSERT_EQ(parsed.status().code(), api::StatusCode::parse_error);
    }
    if (i % 8 != 0) continue;
    std::ofstream(input_path, std::ios::binary) << input;
    std::ostringstream os;
    const api::Status merged =
        obs::merge_chrome_traces({seed_path, input_path}, os);
    if (merged.ok()) {
      ++merged_ok;
      const auto doc = json::parse(os.str());
      ASSERT_TRUE(doc.ok()) << input << "\n-> " << os.str();
    } else {
      ASSERT_EQ(merged.code(), api::StatusCode::io_error) << input;
      ASSERT_NE(merged.message().find(input_path), std::string::npos);
      ASSERT_EQ(os.str(), "") << input;
    }
  }
  // The run exercised both outcomes of both decoders.
  EXPECT_GT(parsed_ok, 0);
  EXPECT_GT(merged_ok, 0);
  std::filesystem::remove(seed_path);
  std::filesystem::remove(input_path);
}

}  // namespace
}  // namespace xoridx
