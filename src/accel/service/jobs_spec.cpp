#include "accel/service/jobs_spec.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/options.hpp"
#include "rw/model/registry.hpp"
#include "rw/walk.hpp"

namespace fw::accel::service {
namespace {

constexpr std::string_view kCommonKeys =
    "walks, length, seed, weight, arrive, source, qos, start";

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

[[noreturn]] void fail(const std::string& entry, const std::string& why) {
  throw std::invalid_argument("--jobs entry '" + entry + "': " + why);
}

/// `v` as an unsigned integer of at most `max`. OptionSet::to_u64 rejects
/// any '-', which std::stoull would wrap ("-1" reads as 2^64 - 1).
std::uint64_t parse_uint(const std::string& entry, const std::string& key,
                         const std::string& v,
                         std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t r = 0;
  try {
    r = OptionSet::to_u64(key, v);
  } catch (const std::invalid_argument&) {
    fail(entry, "expected an integer, got '" + v + "'");
  }
  if (r > max) {
    fail(entry, key + "=" + v + " exceeds the limit of " + std::to_string(max));
  }
  return r;
}

/// "unknown key 'x' for model 'm' (model keys: ...; common keys: ...)".
[[noreturn]] void fail_unknown_key(const std::string& entry, const std::string& key,
                                   const rw::ModelInfo& info) {
  const std::string model_keys =
      info.keys.empty() ? "none" : std::string(info.keys);
  fail(entry, "unknown key '" + key + "' for model '" + std::string(info.name) +
                  "' (model keys: " + model_keys +
                  "; common keys: " + std::string(kCommonKeys) + ")");
}

/// True when `key` is a workload-common key (applied in place); false when
/// the owning model must interpret it.
bool apply_common_key(const std::string& raw, WalkJob& job, bool& seed_set,
                      const std::string& key, const std::string& val) {
  if (key == "walks") {
    job.spec.num_walks = parse_uint(raw, key, val);
  } else if (key == "length") {
    job.spec.length =
        static_cast<std::uint32_t>(parse_uint(raw, key, val, rw::kMaxWalkLength));
    if (job.spec.length == 0) fail(raw, "length must be >= 1");
  } else if (key == "seed") {
    job.spec.seed = parse_uint(raw, key, val);
    seed_set = true;
  } else if (key == "weight") {
    job.weight = static_cast<std::uint32_t>(
        parse_uint(raw, key, val, std::numeric_limits<std::uint32_t>::max()));
  } else if (key == "arrive") {
    job.arrival = parse_uint(raw, key, val);
  } else if (key == "source") {
    job.spec.source = parse_uint(raw, key, val);
  } else if (key == "qos") {
    if (val == "bronze") {
      job.qos = QosClass::kBronze;
    } else if (val == "silver") {
      job.qos = QosClass::kSilver;
    } else if (val == "gold") {
      job.qos = QosClass::kGold;
    } else {
      fail(raw, "qos must be bronze|silver|gold, got '" + val + "'");
    }
  } else if (key == "start") {
    if (val == "random") {
      job.spec.start_mode = rw::StartMode::kUniformRandom;
    } else if (val == "all") {
      job.spec.start_mode = rw::StartMode::kAllVertices;
    } else if (val == "source") {
      job.spec.start_mode = rw::StartMode::kSingleSource;
    } else {
      fail(raw, "start must be random|all|source, got '" + val + "'");
    }
  } else {
    return false;
  }
  return true;
}

}  // namespace

std::vector<WalkJob> parse_jobs(const std::string& spec,
                                const JobSpecDefaults& defaults) {
  std::vector<WalkJob> jobs;
  for (const std::string& raw : split(spec, ';')) {
    if (raw.empty()) fail(raw, "empty entry");

    std::string entry = raw;
    std::uint64_t count = 1;
    if (const std::size_t star = entry.find('*'); star != std::string::npos) {
      count = parse_uint(raw, "count", entry.substr(0, star));
      if (count == 0) fail(raw, "repeat count must be >= 1");
      entry = entry.substr(star + 1);
    }

    std::string model = entry;
    std::string kvs;
    if (const std::size_t colon = entry.find(':'); colon != std::string::npos) {
      model = entry.substr(0, colon);
      kvs = entry.substr(colon + 1);
    }

    const rw::ModelInfo* info = rw::find_model(model);
    if (info == nullptr) {
      fail(raw, "unknown model '" + model +
                    "' (registered: " + rw::registered_model_names() + ")");
    }

    WalkJob job;
    job.name = model;
    job.spec.num_walks = defaults.walks;
    job.spec.length = defaults.length;
    info->apply_defaults(job.spec);
    bool seed_set = false;

    if (!kvs.empty()) {
      for (const std::string& kv : split(kvs, ',')) {
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos) fail(raw, "expected key=value, got '" + kv + "'");
        const std::string key = kv.substr(0, eq);
        const std::string val = kv.substr(eq + 1);
        if (apply_common_key(raw, job, seed_set, key, val)) continue;
        try {
          if (!info->parse_key(job.spec, key, val)) fail_unknown_key(raw, key, *info);
        } catch (const std::invalid_argument& e) {
          // Re-wrap model-key diagnostics with the offending entry.
          const std::string why = e.what();
          if (why.rfind("--jobs", 0) == 0) throw;
          fail(raw, why);
        }
      }
    }

    // Model-parameter validation (alpha/eps ranges, pattern shape, ...)
    // happens at model construction; surface it here with entry context
    // instead of at engine build time.
    try {
      (void)rw::create_model(job.spec);
    } catch (const std::invalid_argument& e) {
      fail(raw, e.what());
    }

    for (std::uint64_t i = 0; i < count; ++i) {
      WalkJob j = job;
      const std::size_t index = jobs.size();
      if (!seed_set) j.spec.seed = defaults.base_seed + kSeedStride * index;
      j.name = model + "#" + std::to_string(index);
      jobs.push_back(std::move(j));
    }
  }
  if (jobs.empty()) throw std::invalid_argument("--jobs: no entries");
  return jobs;
}

std::string jobs_help() {
  std::string help =
      "job mix: [N*]model[:key=val,...] entries joined by ';'\n"
      "  models:\n";
  for (const rw::ModelInfo& m : rw::model_registry()) {
    help += "    " + std::string(m.name) + " — " + std::string(m.summary);
    if (!m.keys.empty()) help += " (keys: " + std::string(m.keys) + ")";
    help += '\n';
  }
  help += "  common keys: " + std::string(kCommonKeys) +
          "\n"
          "               qos=bronze|silver|gold, start=random|all|source\n"
          "  unseeded jobs get seed = base-seed + " +
          std::to_string(kSeedStride) +
          " * job-index\n"
          "  example: \"2*deepwalk:walks=1000;metapath:pattern=0-1-2;"
          "ppr:stop_mode=residual\"";
  return help;
}

}  // namespace fw::accel::service
