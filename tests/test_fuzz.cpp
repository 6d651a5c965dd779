// Seeded mutation fuzzers for every parser that reads outside input: the
// env-spec grammars, the JSON DOM and the JSONL splitter, the io_safe
// "MMIO" envelope, and the flight-ring renderer (which reads files left
// by dead processes).  No external engine: each target mutates a valid
// corpus with byte flips, inserts, deletes, truncation and dictionary
// splices under a fixed seed, so a failure replays exactly.
//
// The contract under test: every input either returns or throws
// mmhand::Error where that is the documented failure mode.  Anything
// else — a crash, a hang, a sanitizer report, another exception type —
// fails the suite.  The ASan and UBSan jobs run this binary too.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "mmhand/common/error.hpp"
#include "mmhand/common/io_safe.hpp"
#include "mmhand/common/json.hpp"
#include "mmhand/fault/fault.hpp"
#include "mmhand/obs/obs.hpp"
#include "mmhand/serve/config.hpp"
#include "top/top_core.hpp"

namespace mmhand {
namespace {

namespace fs = std::filesystem;

/// splitmix64: a fixed-seed stream, independent of the library's Rng.
struct Stream {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }
};

/// Applies 1-4 random edits to `s`: flip a bit, insert a byte, delete a
/// run, truncate, or splice in a dictionary token.
std::string mutate(std::string s, Stream& rng,
                   const std::vector<std::string>& dict) {
  const std::size_t edits = 1 + rng.below(4);
  for (std::size_t k = 0; k < edits; ++k) {
    const std::size_t at = rng.below(s.size() + 1);
    switch (rng.below(5)) {
      case 0:
        if (!s.empty())
          s[at % s.size()] ^= static_cast<char>(1u << rng.below(8));
        break;
      case 1:
        s.insert(at, 1, static_cast<char>(rng.below(256)));
        break;
      case 2:
        s.erase(at, 1 + rng.below(8));
        break;
      case 3:
        s.resize(at);
        break;
      default: {
        const std::string& token = dict[rng.below(dict.size())];
        if (rng.below(2) == 0)
          s.insert(at, token);
        else
          s.replace(at, token.size(), token);
      }
    }
  }
  return s;
}

/// Runs `target` on `rounds` mutants of each corpus entry.
template <typename Target>
void fuzz(std::uint64_t seed, const std::vector<std::string>& corpus,
          const std::vector<std::string>& dict, int rounds, Target target) {
  Stream rng{seed};
  for (const std::string& seed_input : corpus) {
    target(seed_input);
    for (int i = 0; i < rounds; ++i) target(mutate(seed_input, rng, dict));
  }
}

/// Calls `fn`; mmhand::Error is the one accepted failure.
template <typename Fn>
void returns_or_throws_error(Fn&& fn) {
  try {
    fn();
  } catch (const Error&) {
  }
}

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / ("mmhand_fuzz_" + name)).string();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

const std::vector<std::string> kSpecDict = {
    ",", "=", ",,", "out=", "om=", "budgets=", "ring=", "slots=", "seed=",
    "0x", "-1", "1e308", "nan", "inf", "99999999999999999999", "0.5", " ",
    std::string(1, '\0')};

TEST(Fuzz, TelemetryAndFlightSpecs) {
  fuzz(1, {"100", "0,out=/tmp/t.jsonl", "50,out=a,om=b,budgets=c"},
       kSpecDict, 3000, [](const std::string& spec) {
         obs::TelemetryConfig config;
         std::string error;
         obs::parse_telemetry_spec(spec, &config, &error);
       });
  fuzz(2, {"/tmp/f.ring,slots=128", "ring.bin", "r,slots=16"}, kSpecDict,
       3000, [](const std::string& spec) {
         obs::FlightConfig config;
         std::string error;
         obs::parse_flight_spec(spec, &config, &error);
       });
}

TEST(Fuzz, ServeAndFaultSpecs) {
  const std::vector<std::string> dict = [] {
    std::vector<std::string> d = kSpecDict;
    for (const char* key :
         {"deadline_ms=", "max_sessions=", "queue_cap=", "batch_max=",
          "policy=", "shed_hi=", "shed_lo=", "hold=", "retry_ms=",
          "drop_frame=", "bit_flip=", "stall=", "reject_new"})
      d.push_back(key);
    // Duplicate keys and extreme values.
    for (const char* token :
         {",deadline_ms=", ",max_inflight=", ",queue_cap=", ",shed_hi=",
          ",retry_ms=", ",seed=", "1e12", "1e13", "-1e300", "-inf", "NaN",
          "0x7fffffff", "2147483648", "-2147483649", "4294967297", "1e-320",
          "drop_oldest"})
      d.push_back(token);
    return d;
  }();
  // A serve spec either throws mmhand::Error or returns a config the
  // server accepts; the sweep must reach both outcomes.
  int returned = 0;
  fuzz(3,
       {"deadline_ms=12.5,max_sessions=4,max_inflight=9,queue_cap=2,"
        "batch_max=3,policy=reject_new,shed_hi=0.8,shed_lo=0.2,hold=2,"
        "retry_ms=3,seed=0x12",
        "policy=drop_oldest", "deadline_ms=50,batch_max=8,deadline_ms=20",
        "shed_lo=0.1,shed_hi=0.9,hold=1,retry_ms=0.25"},
       dict, 2500, [&](const std::string& spec) {
         returns_or_throws_error([&] {
           const serve::ServeConfig config = serve::parse_serve_spec(spec);
           ++returned;
           EXPECT_NO_THROW(config.validate()) << "spec: " << spec;
         });
       });
  EXPECT_GT(returned, 100);
  EXPECT_LT(returned, 9900);
  fuzz(4,
       {"drop_frame=0.1,gap=0.05,saturate=0.2,nan_burst=0.01,"
        "short_write=0.5,fsync_fail=0,bit_flip=1,seed=7",
        "churn=0.5,burst=0.25,stall=0.125"},
       dict, 3000, [](const std::string& spec) {
         returns_or_throws_error([&] { fault::parse_spec(spec); });
       });
}

const std::vector<std::string> kJsonDict = {
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "\\ud800", "null",
    "true", "-", "1e999", "0x10", "nan", std::string(300, '['),
    std::string(300, '{'), "\n", std::string(1, '\0')};

TEST(Fuzz, JsonAndJsonl) {
  const std::vector<std::string> docs = {
      "{\"counters\": {\"a\": 1, \"b\": 2.5e3}, \"gauges\": {}, "
      "\"histograms\": {\"radar/range_fft\": {\"count\": 3, \"p50\": 1.5}}}",
      "{\"kind\": \"frame\", \"stages\": {\"x\": {\"us\": 1, \"count\": 2}}, "
      "\"label\": \"l\\u00e9\\n\"}",
      "[[1, [2, [3, {\"k\": [true, false, null]}]]], \"s\", -0.5]"};
  fuzz(5, docs, kJsonDict, 3000, [](const std::string& text) {
    std::string error;
    json::Value::parse(text, &error);
  });
  fuzz(6, {docs[0] + "\n" + docs[1] + "\n" + docs[2] + "\n"}, kJsonDict,
       2000, [](const std::string& text) { top::parse_jsonl(text); });
}

TEST(Fuzz, IoSafeEnvelope) {
  const std::string path = temp_path("envelope.bin");
  io_safe::write_file_durable(path, {'m', 'm', 'h', 'a', 'n', 'd', 0, 1, 2});
  const std::string valid = read_bytes(path);
  fuzz(7, {valid}, {"MMIO", std::string(8, '\xFF'), std::string(8, '\0')},
       500, [&](const std::string& image) {
         write_bytes(path, image);
         returns_or_throws_error([&] { io_safe::read_file_validated(path); });
       });
  fs::remove(path);
}

/// A small but real ring file: spans, an in-flight span and log lines.
std::string flight_image(const std::string& path) {
  fs::remove(path);
  obs::FlightConfig config;
  config.path = path;
  config.slots_per_thread = 16;
  EXPECT_TRUE(obs::set_flight(config));
  {
    MMHAND_SPAN("fuzz/outer");
    { MMHAND_SPAN("fuzz/inner"); }
    obs::detail::flight_note_log("a log line longer than forty bytes, cut");
    const std::string image = read_bytes(path);
    obs::stop_flight();
    return image;
  }
}

/// Overwrites the 8 bytes at a random 8-aligned offset with an edge value
/// — the header, ring heads and record fields are all 4/8-byte words.
std::string poke_word(std::string image, Stream& rng) {
  static const std::uint64_t kValues[] = {
      0, 1, 16, 64, 256, 1u << 20, 0xFFFFFFFFull, ~std::uint64_t{0},
      std::uint64_t{1} << 63};
  const std::uint64_t v = kValues[rng.below(std::size(kValues))];
  const std::size_t at = rng.below(image.size() / 8) * 8;
  if (image.size() >= at + 8) std::memcpy(&image[at], &v, 8);
  return image;
}

TEST(Fuzz, FlightRenderFile) {
  const std::string ring = temp_path("image.ring");
  const std::string valid = flight_image(ring);
  ASSERT_FALSE(valid.empty());
  Stream rng{8};
  const std::vector<std::string> dict = {std::string(8, '\xFF'),
                                         std::string(8, '\0'), "MMFR"};
  for (int i = 0; i < 300; ++i) {
    // Half the rounds aim at the words the renderer trusts least: the
    // header (offsets 0-63) and ring heads.
    const std::string image = i % 2 == 0 ? mutate(valid, rng, dict)
                                         : poke_word(valid, rng);
    write_bytes(ring, image);
    std::string error;
    obs::flight_render_file(ring, &error);
  }
  fs::remove(ring);
}

// Regression: a ring head of 2^64 - 1 made the render loop `seq <= head`
// wrap around forever.
TEST(Fuzz, FlightRenderTerminatesOnMaximalRingHead) {
  const std::string ring = temp_path("maxhead.ring");
  std::string image = flight_image(ring);
  ASSERT_GT(image.size(), 64u);
  // First ring header: after the 64-byte file header and 256 name slots.
  const std::size_t ring0 = 64 + 256 * 64;
  const std::uint64_t head = ~std::uint64_t{0};
  std::memcpy(&image[ring0], &head, 8);
  write_bytes(ring, image);
  std::string error;
  const std::string rendered = obs::flight_render_file(ring, &error);
  EXPECT_NE(rendered.find("end of flight dump"), std::string::npos) << error;
  fs::remove(ring);
}

}  // namespace
}  // namespace mmhand
