// Shared helpers: seed mixing, the gate tally, the speed probe, sample
// statistics and the machine fingerprint.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>

#include "bench.h"

namespace fbench {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                  std::uint64_t c) {
  std::uint64_t x = seed ^ 0x9e3779b97f4a7c15ull;
  for (const std::uint64_t v : {a, b, c}) {
    x ^= v + 0x9e3779b97f4a7c15ull + (x << 6) + (x >> 2);
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
  }
  return x;
}

void Gate::record(const std::string& what, const std::string& errors) {
  ++attempted;
  if (errors.empty()) return;
  ++failed;
  if (first_failures.size() < 8) first_failures.push_back(what + ": " + errors);
}

double SpeedProbe::mark() {
  // Two halves: a xorshift walk over a 256 KiB table with a
  // data-dependent branch (the branchy, cache-resident integer work of an
  // interpreter), and two 8 MiB copies (the page traffic of checkpoint
  // capture and restore). Co-tenants slow the two by different amounts;
  // the sum tracked campaign cells three times better than the walk alone.
  static std::vector<std::uint32_t> table(1u << 16);
  static std::vector<char> from(8u << 20, 1);
  static std::vector<char> to(8u << 20, 2);
  static volatile std::uint64_t sink = 0;
  const double t0 = now_seconds();
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t acc = 0;
  for (int i = 0; i < 400000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint32_t& slot = table[x & 0xffff];
    acc = (slot & 1) != 0 ? acc + (slot >> 3) : acc ^ (slot * 7u);
    slot += static_cast<std::uint32_t>(x);
  }
  std::memcpy(to.data(), from.data(), from.size());
  std::memcpy(from.data(), to.data(), to.size());
  sink = acc + static_cast<std::uint64_t>(from[acc % from.size()]);
  const double timing_ms = (now_seconds() - t0) * 1e3;
  const double previous = timings_.empty() ? timing_ms : timings_.back();
  timings_.push_back(timing_ms);
  return kReferenceMs / (0.5 * (previous + timing_ms));
}

void Totals::add(const std::string& type, double ms, bool in_percentiles) {
  pending_.push_back({type, ms, in_percentiles});
  ++cells;
  busy_s += ms * 1e-3;
}

void Totals::settle(double factor) {
  for (const Pending& sample : pending_) {
    Type& entry = types[sample.type];
    entry.ms.push_back(sample.ms * factor);
    entry.in_percentiles = sample.in_percentiles;
  }
  pending_.clear();
}

void Totals::merge(const Totals& other) {
  for (const auto& [name, type] : other.types) {
    Type& entry = types[name];
    entry.ms.insert(entry.ms.end(), type.ms.begin(), type.ms.end());
    entry.in_percentiles = type.in_percentiles;
  }
  cells += other.cells;
  busy_s += other.busy_s;
}

const std::vector<double>* Ledger::find(const std::string& name) const {
  const auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(std::floor(rank));
  const std::size_t high = std::min(low + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(low);
  return values[low] + (values[high] - values[low]) * frac;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

ferrum::telemetry::Json fingerprint() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  ferrum::telemetry::Json json = ferrum::telemetry::Json::object();
  json["nproc"] = static_cast<std::uint64_t>(sysconf(_SC_NPROCESSORS_ONLN));
  json["cpu"] = cpu;
  json["build_type"] = std::string(FERRUM_BENCH_BUILD_TYPE);
#if defined(__clang__)
  json["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  json["compiler"] = std::string("gcc ") + __VERSION__;
#else
  json["compiler"] = std::string("unknown");
#endif
  return json;
}

}  // namespace fbench
