// Self-test of the correctness gate: on two seeds the gate must accept the
// outputs the library produces, and it must reject each deliberately
// corrupted copy of them (one flipped outcome count, one count too many,
// one altered output word, one altered result byte, a warm answer that
// ran trials). Exit status 0 iff every expectation holds.
#include <cstdio>
#include <string>

#include "bench.h"
#include "telemetry/export.h"
#include "telemetry/json.h"
#include "workloads/workloads.h"

namespace {

using namespace fbench;
namespace fault = ferrum::fault;

int failures = 0;

void expect(bool accept_expected, const std::string& errors,
            const std::string& what) {
  const bool accepted = errors.empty();
  const bool ok = accepted == accept_expected;
  if (!ok) ++failures;
  std::printf("%s %-52s %s%s\n", ok ? "ok  " : "FAIL", what.c_str(),
              accept_expected ? "accepts" : "rejects",
              errors.empty() ? "" : (" (" + errors + ")").c_str());
}

void check_cell(const ferrum::workloads::Workload& kernel, Technique technique, std::uint64_t seed,
                double max_half_width) {
  const std::string name = kernel.name + "/" +
                           ferrum::pipeline::technique_name(technique) +
                           (max_half_width > 0.0 ? "/adaptive" : "");
  const auto build = ferrum::pipeline::build(kernel.source, technique);
  const ferrum::ir::RunResult reference = ferrum::ir::interpret(*build.module);
  fault::CampaignOptions options;
  options.trials = 512;
  options.seed = seed;
  options.max_half_width = max_half_width;
  const fault::PreparedCampaign prepared(build.program, options.vm,
                                         options.ckpt_stride);
  options.prepared = &prepared;
  const fault::CampaignResult result =
      fault::run_campaign(build.program, options);

  expect(true, check_golden(prepared.golden.output, reference),
         name + " golden output");
  expect(true, check_campaign(result, technique, options.trials),
         name + " outcome counts");
  const std::string bytes = ferrum::telemetry::to_json(result).dump();
  if (max_half_width == 0.0) {
    expect(true, check_result_bytes(bytes, technique, options.trials),
           name + " result frame");
  }
  expect(true, check_warm(bytes, bytes, true, 0), name + " warm answer");

  std::vector<std::uint64_t> altered = prepared.golden.output;
  altered[altered.size() / 2] ^= 1u << 7;
  expect(false, check_golden(altered, reference),
         name + " one altered output word");

  fault::CampaignResult extra = result;
  ++extra.counts[static_cast<int>(fault::Outcome::kDetected)];
  expect(false, check_campaign(extra, technique, options.trials),
         name + " one outcome count too many");

  if (technique == Technique::kFerrum) {
    fault::CampaignResult flipped = result;
    --flipped.counts[static_cast<int>(fault::Outcome::kDetected)];
    ++flipped.counts[static_cast<int>(fault::Outcome::kSdc)];
    expect(false, check_campaign(flipped, technique, options.trials),
           name + " one detected trial flipped to SDC");
    if (max_half_width == 0.0) {
      expect(false,
             check_result_bytes(ferrum::telemetry::to_json(flipped).dump(),
                                technique, options.trials),
             name + " result frame with a flipped outcome");
    }
  }

  std::string tampered = bytes;
  tampered[tampered.size() / 2] ^= 1;
  expect(false, check_warm(bytes, tampered, true, 0),
         name + " warm answer with one altered byte");
  expect(false, check_warm(bytes, bytes, true, 1),
         name + " warm answer that ran a trial");
  expect(false, check_warm(bytes, bytes, false, 0),
         name + " warm answer not from the store");
}

}  // namespace

int main() {
  for (const std::uint64_t seed : {1ull, 2ull}) {
    const auto& kernels = ferrum::workloads::all();
    for (const std::size_t k : {std::size_t{0}, std::size_t{3}}) {
      for (const Technique technique : {Technique::kNone, Technique::kFerrum}) {
        check_cell(kernels[k], technique, mix(seed, k), 0.0);
      }
      check_cell(kernels[k], Technique::kFerrum, mix(seed, k, 1), 0.05);
    }
  }
  std::printf("gate self-test: %s (%d unexpected)\n",
              failures == 0 ? "passed" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}
