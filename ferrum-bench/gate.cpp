// The correctness gate. Every answered cell passes through one of these
// checks; a failure is counted, never fatal, so one bad cell cannot hide
// the rest of the run.
#include <string>

#include "bench.h"
#include "telemetry/json.h"

namespace fbench {

namespace {

bool zero_sdc_contract(Technique technique) {
  // The assembly-level techniques reach 100% SDC coverage (Table I).
  return technique == Technique::kHybrid || technique == Technique::kFerrum;
}

std::string join(const std::string& a, const std::string& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  return a + "; " + b;
}

std::string check_counts(const std::array<long long, 4>& counts,
                         long long executed, Technique technique) {
  std::string errors;
  long long sum = 0;
  for (const long long count : counts) {
    if (count < 0) errors = join(errors, "negative outcome count");
    sum += count;
  }
  if (sum != executed) {
    errors = join(errors, "outcomes sum to " + std::to_string(sum) +
                              ", trials executed " + std::to_string(executed));
  }
  if (zero_sdc_contract(technique) && counts[1] != 0) {
    errors = join(errors, std::to_string(counts[1]) + " SDC under " +
                              ferrum::pipeline::technique_name(technique));
  }
  return errors;
}

}  // namespace

std::string check_golden(const std::vector<std::uint64_t>& vm_output,
                         const ferrum::ir::RunResult& reference) {
  if (!reference.ok()) return "reference interpreter did not finish";
  if (vm_output != reference.output) {
    return "golden output (" + std::to_string(vm_output.size()) +
           " words) differs from ir::interpret (" +
           std::to_string(reference.output.size()) + " words)";
  }
  return "";
}

std::string check_campaign(const ferrum::fault::CampaignResult& result,
                           Technique technique, int planned_trials) {
  long long executed = planned_trials;
  std::string errors;
  if (result.adaptive.enabled) {
    executed = result.adaptive.executed_trials;
    if (executed < 1 || executed > planned_trials) {
      errors = "adaptive prefix " + std::to_string(executed) +
               " outside [1, " + std::to_string(planned_trials) + "]";
    }
  }
  const std::array<long long, 4> counts = {
      result.counts[0], result.counts[1], result.counts[2], result.counts[3]};
  return join(errors, check_counts(counts, executed, technique));
}

std::string check_result_bytes(const std::string& bytes, Technique technique,
                               int planned_trials) {
  const auto json = ferrum::telemetry::Json::parse(bytes);
  const ferrum::telemetry::Json* outcomes =
      json.has_value() ? json->find("outcomes") : nullptr;
  if (outcomes == nullptr) return "result frame has no outcomes";
  std::array<long long, 4> counts{};
  const char* names[4] = {"benign", "sdc", "detected", "crash"};
  for (int i = 0; i < 4; ++i) {
    const ferrum::telemetry::Json* count = outcomes->find(names[i]);
    if (count == nullptr) return std::string("result frame lacks ") + names[i];
    counts[static_cast<std::size_t>(i)] =
        static_cast<long long>(count->as_uint());
  }
  return check_counts(counts, planned_trials, technique);
}

std::string check_warm(const std::string& cold_bytes,
                       const std::string& warm_bytes, bool cached,
                       std::uint64_t trials_executed) {
  std::string errors;
  if (warm_bytes != cold_bytes) errors = "warm bytes differ from cold";
  if (!cached) errors = join(errors, "warm answer not served from the store");
  if (trials_executed != 0) {
    errors = join(errors, "warm answer executed " +
                              std::to_string(trials_executed) + " trials");
  }
  return errors;
}

}  // namespace fbench
