#include "mmhand/serve/config.hpp"

#include <cstdlib>
#include <limits>

namespace mmhand::serve {

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kFull:
      return "full";
    case Tier::kNoMesh:
      return "no_mesh";
    case Tier::kPoseOnly:
      return "pose_only";
  }
  return "?";
}

void ServeConfig::validate() const {
  // Durations become integer nanoseconds downstream; 1e12 ms (about 32
  // years, far past any "never expires" deadline) keeps that conversion
  // well inside std::uint64_t.  The bound also rejects inf; NaN already
  // fails the > 0 comparison.
  constexpr double kMaxMs = 1e12;
  MMHAND_CHECK(deadline_ms > 0.0 && deadline_ms <= kMaxMs,
               "MMHAND_SERVE deadline_ms must be in (0, 1e12]");
  MMHAND_CHECK(max_sessions >= 1, "MMHAND_SERVE max_sessions must be >= 1");
  MMHAND_CHECK(max_inflight >= 1, "MMHAND_SERVE max_inflight must be >= 1");
  MMHAND_CHECK(queue_cap >= 1, "MMHAND_SERVE queue_cap must be >= 1");
  MMHAND_CHECK(batch_max >= 1, "MMHAND_SERVE batch_max must be >= 1");
  MMHAND_CHECK(shed_lo >= 0.0 && shed_hi <= 1.0 && shed_lo < shed_hi,
               "MMHAND_SERVE shed thresholds need 0 <= shed_lo < shed_hi"
               " <= 1");
  MMHAND_CHECK(hold_ticks >= 1, "MMHAND_SERVE hold must be >= 1");
  MMHAND_CHECK(retry_ms > 0.0 && retry_ms <= kMaxMs,
               "MMHAND_SERVE retry_ms must be in (0, 1e12]");
}

namespace {

double parse_double(const std::string& key, const std::string& value) {
  std::size_t consumed = 0;
  double v = 0.0;
  try {
    v = std::stod(value, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  MMHAND_CHECK(consumed == value.size(),
               "MMHAND_SERVE " << key << " '" << value
                               << "' is not a number");
  return v;
}

int parse_int(const std::string& key, const std::string& value) {
  std::size_t consumed = 0;
  long v = 0;
  try {
    v = std::stol(value, &consumed, 0);
  } catch (const std::exception&) {
    consumed = 0;
  }
  MMHAND_CHECK(consumed == value.size(),
               "MMHAND_SERVE " << key << " '" << value
                               << "' is not an integer");
  MMHAND_CHECK(v >= std::numeric_limits<int>::min() &&
                   v <= std::numeric_limits<int>::max(),
               "MMHAND_SERVE " << key << " '" << value
                               << "' is out of range");
  return static_cast<int>(v);
}

}  // namespace

ServeConfig parse_serve_spec(const std::string& text) {
  ServeConfig config;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(',', pos);
    if (end == std::string::npos) end = text.size();
    const std::string pair = text.substr(pos, end - pos);
    pos = end + 1;
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    MMHAND_CHECK(eq != std::string::npos && eq > 0 && eq + 1 < pair.size(),
                 "MMHAND_SERVE entry '" << pair << "' is not key=value");
    const std::string key = pair.substr(0, eq);
    const std::string value = pair.substr(eq + 1);
    if (key == "deadline_ms") {
      config.deadline_ms = parse_double(key, value);
    } else if (key == "max_sessions") {
      config.max_sessions = parse_int(key, value);
    } else if (key == "max_inflight") {
      config.max_inflight = parse_int(key, value);
    } else if (key == "queue_cap") {
      config.queue_cap = parse_int(key, value);
    } else if (key == "batch_max") {
      config.batch_max = parse_int(key, value);
    } else if (key == "policy") {
      if (value == "drop_oldest") {
        config.policy = ShedPolicy::kDropOldest;
      } else if (value == "reject_new") {
        config.policy = ShedPolicy::kRejectNew;
      } else {
        throw Error("MMHAND_SERVE policy '" + value +
                    "' is not drop_oldest or reject_new");
      }
    } else if (key == "shed_hi") {
      config.shed_hi = parse_double(key, value);
    } else if (key == "shed_lo") {
      config.shed_lo = parse_double(key, value);
    } else if (key == "hold") {
      config.hold_ticks = parse_int(key, value);
    } else if (key == "retry_ms") {
      config.retry_ms = parse_double(key, value);
    } else if (key == "seed") {
      std::size_t consumed = 0;
      std::uint64_t seed = 0;
      try {
        seed = std::stoull(value, &consumed, 0);
      } catch (const std::exception&) {
        consumed = 0;
      }
      MMHAND_CHECK(consumed == value.size(), "MMHAND_SERVE seed '"
                                                 << value
                                                 << "' is not an integer");
      config.seed = seed;
    } else {
      throw Error("MMHAND_SERVE key '" + key +
                  "' is not one of deadline_ms, max_sessions, max_inflight,"
                  " queue_cap, batch_max, policy, shed_hi, shed_lo, hold,"
                  " retry_ms, seed");
    }
  }
  config.validate();
  return config;
}

ServeConfig config_from_env() {
  const char* spec = std::getenv("MMHAND_SERVE");
  if (spec == nullptr || *spec == '\0') return ServeConfig{};
  return parse_serve_spec(spec);
}

}  // namespace mmhand::serve
