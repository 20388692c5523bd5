// Golden-output regression pins. The workloads are the measurement
// instruments of every experiment: if a frontend/backend/VM change shifts
// any of their outputs, the campaigns silently measure a different
// program. These tests pin the exact output streams (raw 64-bit images)
// so such a shift fails loudly instead.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>

#include "check/check.h"
#include "check/flow.h"
#include "check/prune.h"
#include "check/sections.h"
#include "fault/audit.h"
#include "fault/campaign.h"
#include "fault/compose.h"
#include "pipeline/pipeline.h"
#include "pipeline/selective.h"
#include "support/hash.h"
#include "telemetry/export.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

namespace ferrum {
namespace {

using pipeline::Technique;

std::vector<std::uint64_t> output_of(const std::string& name) {
  const auto& w = workloads::by_name(name);
  auto build = pipeline::build(w.source, Technique::kNone);
  const vm::VmResult result = vm::run(build.program);
  EXPECT_TRUE(result.ok()) << name;
  return result.output;
}

std::uint64_t bits_of(double value) {
  std::uint64_t raw;
  std::memcpy(&raw, &value, sizeof(raw));
  return raw;
}

TEST(Goldens, Bfs) {
  EXPECT_EQ(output_of("bfs"), (std::vector<std::uint64_t>{6224}));
}

TEST(Goldens, Pathfinder) {
  EXPECT_EQ(output_of("pathfinder"), (std::vector<std::uint64_t>{5136}));
}

TEST(Goldens, Needle) {
  const auto output = output_of("needle");
  ASSERT_EQ(output.size(), 1u);
  // Negative checksum: stored as a two's-complement image.
  EXPECT_EQ(static_cast<std::int64_t>(output[0]), -270);
}

TEST(Goldens, ExactPins) {
  EXPECT_EQ(output_of("backprop"),
            (std::vector<std::uint64_t>{13850228365716951309ULL}));
  EXPECT_EQ(output_of("lud"),
            (std::vector<std::uint64_t>{4660044027968576203ULL}));
  EXPECT_EQ(output_of("knn"),
            (std::vector<std::uint64_t>{4637023936443716826ULL, 407}));
  EXPECT_EQ(output_of("kmeans"),
            (std::vector<std::uint64_t>{4648289880018799224ULL, 83}));
  EXPECT_EQ(output_of("particlefilter"),
            (std::vector<std::uint64_t>{35317}));
}

TEST(Goldens, Backprop) {
  const auto output = output_of("backprop");
  ASSERT_EQ(output.size(), 1u);
  // A finite double; pin its exact bit pattern.
  double value;
  std::memcpy(&value, &output[0], sizeof(value));
  EXPECT_TRUE(value == value);  // not NaN
  EXPECT_EQ(output[0], bits_of(value));
  // Pin against drift: recompute must match exactly.
  EXPECT_EQ(output_of("backprop"), output);
}

TEST(Goldens, AllWorkloadsStablePinned) {
  // Full pin: record the exact stream of every workload. If an intended
  // change shifts these, re-run `ferrumc run` and update deliberately.
  struct Pin {
    const char* name;
    std::size_t outputs;
  };
  const Pin pins[] = {
      {"backprop", 1}, {"bfs", 1},    {"pathfinder", 1},
      {"lud", 1},      {"needle", 1}, {"knn", 2},
      {"kmeans", 2},   {"particlefilter", 1},
  };
  for (const Pin& pin : pins) {
    const auto output = output_of(pin.name);
    EXPECT_EQ(output.size(), pin.outputs) << pin.name;
    // Deterministic across repeated builds and runs.
    EXPECT_EQ(output_of(pin.name), output) << pin.name;
  }
}

TEST(Goldens, FloatOutputsAreFinite) {
  for (const char* name : {"backprop", "lud", "knn", "kmeans"}) {
    const auto output = output_of(name);
    ASSERT_FALSE(output.empty()) << name;
    double value;
    std::memcpy(&value, &output[0], sizeof(value));
    EXPECT_TRUE(value == value) << name << " produced NaN";
    EXPECT_LT(value, 1e15) << name;
    EXPECT_GT(value, -1e15) << name;
  }
}

/// The selective-plan ordinals of a workload's unprotected build at
/// budgets {0.25, 0.5} x strategies {analysis, random}, one line each.
std::string plan_ordinals(const std::string& workload) {
  const auto build =
      pipeline::build(workloads::by_name(workload).source, Technique::kNone);
  std::string out;
  for (const double budget : {0.25, 0.5}) {
    for (const auto strategy : {pipeline::SelectiveOptions::Strategy::kAnalysis,
                                pipeline::SelectiveOptions::Strategy::kRandom}) {
      pipeline::SelectiveOptions options;
      options.strategy = strategy;
      options.budget = budget;
      const pipeline::SelectivePlan plan =
          pipeline::plan_selective(build.program, options, {});
      out += pipeline::selective_strategy_name(strategy);
      out += "@" + std::to_string(budget) + ":";
      for (const int ordinal : plan.selected) {
        out += " " + std::to_string(ordinal);
      }
      out += "\n";
    }
  }
  return out;
}

/// SHA-256 over the exact to_json dumps of check, prune, sections and
/// flow for one build, at store-data sites off and then on, followed by
/// the workload's plan ordinals.
std::string static_reports_digest(const masm::AsmProgram& program,
                                  const std::string& plans) {
  Sha256 sha;
  for (const bool store_data : {false, true}) {
    const std::string reports[] = {
        check::to_json(check::check_program(program, {store_data})).dump(),
        check::prune::to_json(check::prune::prune_program(program, {store_data}),
                              program)
            .dump(),
        check::sections::to_json(
            check::sections::build_sections(program, {store_data}), program,
            {store_data})
            .dump(),
        check::flow::to_json(check::flow::flow_program(program, {store_data}),
                             program)
            .dump(),
    };
    for (const std::string& report : reports) {
      sha.update(report);
      sha.update("\n");
    }
  }
  sha.update(plans);
  return sha.hex_digest();
}

TEST(Goldens, StaticReportsPinned) {
  // Byte pins on the static analyses' outputs. FlowDeterminism and
  // flow_smoke check that a report is stable run to run; these check
  // that it is the same report: any change to check, prune, sections or
  // flow (or to the selective planner on top of flow) that shifts one
  // byte of lint=json / sites / plan output fails here. Regenerate only
  // for a deliberate output change, from the digests this test prints.
  struct Pin {
    const char* workload;
    const char* digest[4];  // none, ir-eddi, hybrid, ferrum
  };
  const Pin pins[] = {
      {"backprop",
       {"501b7920ffaedf72611639d2bbb68e1582addae2700517f5d273daf34fb5cc09",
        "7015a25c0d8fa3442d51fea81a2cad7ffba938e514c7753a01704bca8ae9a11c",
        "11e9dcffae1949ed2287db3433eb25f760f500c60894176a5adb4cc09cc518db",
        "854c6c48cbeb13abec2a3490595be26129f37199f3deae567d74b8125d7448c7"}},
      {"bfs",
       {"e428665f6fbf92639efac595782e259c6bdfc1ca35d23456c7b0e6d266ca76aa",
        "ad5769011ac6ae642f3f416912eeaf93c30578cca8c9825df8826fdeeebba4aa",
        "64e055bcf9738939d4c034a5fec2c2ec9fc66265c8ff633fc6023cf97a88aa06",
        "ef625899820347600d930411f482db29ef7033454e29903a991135d9c180050d"}},
      {"pathfinder",
       {"3aa7eb07a67aa30d11befdb70b430c3dfd54b31f5a2610b929ed500dfc40b79b",
        "e9fadcba85af6fb7724678233b79128491b589a35ae94064af542ba121472cec",
        "695549c4b50149e6a7a5768b2409cc6d5fed651b183f8f79b8d02a91ebd310f0",
        "3dd2f6fb1b68d479c248e3974d70a2eaa0b3e31620f249c6aedd0f29a173383e"}},
      {"lud",
       {"b8207578c94aaedef102e471c8b62e6650e6c80f347e826c093e62e5d0e94a26",
        "df02b1d558349ad90b959c24d0a3515a20f53d322b0620f38210949e27456d52",
        "f3ea828d33dde3977cf3521bdc3d3cff73c3058067d45bcc4df7b1b4fd5cc125",
        "5e615e1fb07a174491436b29d8e3d8906489ad66b7a8d73a0748e149b521df62"}},
      {"needle",
       {"423f9038a621648abd6d7b60b4a7ceb4ba1b2bbdbe21b5008477e660979ba004",
        "65aa92c9e68207f4c3512979b248f7b8d9ea0e4ca700e5cacabd206672e91399",
        "4a010877c85fb9a2d90c4ef53eefcede67a529ebc71763ba95b1982e46fded1e",
        "599e2edc87bc5a6a130d0cce683aa7b0e9507d92ec35b0db2df844a6c6a68a23"}},
      {"knn",
       {"8d7a118cf959d94e07d36ac42ed2262a1d3b69a8ba854e5edc61f393d05ebe9f",
        "53b15f985c1762168d83cd99c22eeac37930d39c19620ad5988d66676d3ddbe6",
        "b8bd12cfc935925b98815f4c922986d44907f59acdac09edc2953f99612d1cfa",
        "a250294cf063e437614bd852e5a6e012f4f069f4ba3326e6f54078ce9f229af9"}},
      {"kmeans",
       {"46c35812d98ea0169bc2d702bc1f28f3df3837fffcb0e821519a9a5c3624d963",
        "ace003332d26dd1e76f076772e5d59f03b7d1ff67f6aa2e6835e5ca20aca1592",
        "745f52adf06e9c3e69880a636f41784caae2209de125b65bae885708487e458c",
        "a4d3215e4e373844a2a6e0a72fb62e50095a36b6b48e8a93644268f1d6bc2c18"}},
      {"particlefilter",
       {"c6f324c4b44b53e3bcf4a3ce20f05297c6f255bf88d11110f023bc461aafbcd4",
        "0fc5738aee27a902bb9bd4d516229190906baec7a3a8c04c5200712c52d39240",
        "2e6d3559e6d80c38abf01aeebeb2376b4f768fbc5c09ddf4a5c3debe1c648ddc",
        "4d46e3c266e6d15ba403425b914464f260c8d2cae764415c45c46ebb8f507e17"}},
  };
  const Technique techniques[] = {Technique::kNone, Technique::kIrEddi,
                                  Technique::kHybrid, Technique::kFerrum};
  for (const Pin& pin : pins) {
    const std::string plans = plan_ordinals(pin.workload);
    for (int t = 0; t < 4; ++t) {
      const auto build = pipeline::build(
          workloads::by_name(pin.workload).source, techniques[t]);
      EXPECT_EQ(static_reports_digest(build.program, plans), pin.digest[t])
          << pin.workload << "/" << pipeline::technique_name(techniques[t]);
    }
  }
}

/// One letter per audit outcome, so the pinned bytes do not depend on
/// the enum's numeric order.
char outcome_letter(fault::Outcome outcome) {
  switch (outcome) {
    case fault::Outcome::kBenign: return 'B';
    case fault::Outcome::kSdc: return 'S';
    case fault::Outcome::kDetected: return 'D';
    case fault::Outcome::kCrash: return 'C';
  }
  return '?';
}

/// The AuditReport bytes to_json leaves out: the per-site tallies and the
/// pruned audit's pilot list.
std::string audit_extras(const fault::AuditReport& report) {
  std::string out;
  for (const fault::SiteOutcome& site : report.site_outcomes) {
    out += site.function + " " + std::to_string(site.block) + " " +
           std::to_string(site.inst) + " " +
           std::to_string(static_cast<int>(site.kind));
    for (const fault::Outcome outcome :
         {fault::Outcome::kDetected, fault::Outcome::kCrash,
          fault::Outcome::kBenign, fault::Outcome::kSdc}) {
      out += " " + std::to_string(site.of(outcome));
    }
    out += "\n";
  }
  for (const fault::AuditPilot& pilot : report.prune.pilots) {
    out += std::to_string(pilot.site) + ":" + std::to_string(pilot.bit) +
           outcome_letter(pilot.outcome) + "\n";
  }
  return out;
}

/// The deterministic bytes of one fault-injection mode on one build.
using ModeRun = std::function<std::string(const masm::AsmProgram&)>;

std::string campaign_bytes(const masm::AsmProgram& program,
                           fault::CampaignOptions options) {
  check::prune::PruneReport prune;
  if (options.prune != nullptr) {
    prune =
        check::prune::prune_program(program, {options.vm.fault_store_data});
    options.prune = &prune;
  }
  return telemetry::to_json(fault::run_campaign(program, options)).dump();
}

std::string compose_bytes(const masm::AsmProgram& program, bool audit,
                          fault::ComposeOptions options) {
  const check::sections::SectionMap map = check::sections::build_sections(
      program, {options.vm.fault_store_data});
  // A cache that records every store and never hits: pins the section
  // keys (and with them the golden state digests) and summary bytes.
  std::map<std::string, std::string> stored;
  if (options.lookup != nullptr) {
    options.lookup = [](const std::string&) -> std::optional<std::string> {
      return std::nullopt;
    };
    options.store = [&stored](const std::string& key,
                              const std::string& bytes) {
      stored[key] = bytes;
    };
  }
  const fault::ComposeReport report =
      audit ? fault::compose_audit(program, map, options)
            : fault::compose_campaign(program, map, options);
  std::string out = telemetry::to_json(report).dump();
  for (const auto& [key, bytes] : stored) out += "\n" + key + "\n" + bytes;
  return out;
}

TEST(Goldens, FaultModesPinned) {
  // Byte pins on every fault-injection mode: the campaign, audit and
  // compose JSON of each workload x technique (plus the audit tallies and
  // pilots the JSON leaves out). One digest per mode, over the 32 builds
  // in workload-then-technique order. Any change to golden-state
  // preparation, the trial executor, the pilot planner or the reductions
  // that moves one byte of a report fails here. Regenerate only for a
  // deliberate output change, from the digests this test prints.
  constexpr int kTrials = 64;
  // Every report is jobs-invariant by contract, so the pins hold for any
  // worker count; 0 takes the machine's cores to keep the sweep short.
  constexpr int kJobs = 0;
  struct Mode {
    const char* name;
    ModeRun run;
    const char* digest;
  };
  const auto campaign = [](auto tweak) {
    return [tweak](const masm::AsmProgram& program) {
      fault::CampaignOptions options;
      options.trials = kTrials;
      options.jobs = kJobs;
      tweak(options);
      return campaign_bytes(program, options);
    };
  };
  // A non-null placeholder: campaign_bytes swaps in the real report.
  static const check::prune::PruneReport kPruneMarker;
  const auto audit = [](auto tweak) {
    return [tweak](const masm::AsmProgram& program) {
      fault::AuditOptions options;
      options.jobs = kJobs;
      tweak(options);
      check::prune::PruneReport prune;
      if (options.prune != nullptr) {
        prune = check::prune::prune_program(program,
                                            {options.vm.fault_store_data});
        options.prune = &prune;
      }
      const fault::AuditReport report =
          fault::audit_program(program, options);
      return telemetry::to_json(report).dump() + "\n" + audit_extras(report);
    };
  };
  const auto compose = [](bool audit_mode, auto tweak) {
    return [audit_mode, tweak](const masm::AsmProgram& program) {
      fault::ComposeOptions options;
      options.trials = kTrials;
      options.jobs = kJobs;
      tweak(options);
      return compose_bytes(program, audit_mode, options);
    };
  };
  const Mode modes[] = {
      {"campaign", campaign([](fault::CampaignOptions&) {}),
       "8f4f81a3a3e0c91c6a93e5b183d11f8f721b0bff5b5aecad2c70a0679bf3d5af"},
      {"campaign-store-data",
       campaign(
           [](fault::CampaignOptions& o) { o.vm.fault_store_data = true; }),
       "85928f7b26a77f7a6fad20a6258177d712a9852b1e87ea0724d9cf5a0f510b07"},
      {"campaign-2fault-burst3",
       campaign([](fault::CampaignOptions& o) {
         o.faults_per_run = 2;
         o.burst = 3;
       }),
       "d7098e7f568e47b2eab5010707fbf3c2723476e18e1a8ae557b3d44dd55ac084"},
      {"campaign-rejoin-off",
       campaign(
           [](fault::CampaignOptions& o) { o.vm.golden_rejoin = false; }),
       "8f4f81a3a3e0c91c6a93e5b183d11f8f721b0bff5b5aecad2c70a0679bf3d5af"},
      {"campaign-adaptive",
       campaign([](fault::CampaignOptions& o) {
         o.trials = 512;
         o.max_half_width = 0.05;
       }),
       "b740fa28c22e089d51b2d26ac6e51ea30da4b06ac9fe97e8c8526a4d95227339"},
      {"campaign-pruned",
       campaign([](fault::CampaignOptions& o) { o.prune = &kPruneMarker; }),
       "5e6c4694d7611c6928769ef2e64fcf676d6e4e8635417a2422e4143903fd3b5f"},
      {"campaign-pruned-store-data",
       campaign([](fault::CampaignOptions& o) {
         o.prune = &kPruneMarker;
         o.vm.fault_store_data = true;
       }),
       "6c13a337c9e1628958a5cb43dac4219d84871de47f55d913b93a6f213dd3b0fc"},
      {"audit-strided-site-outcomes",
       audit([](fault::AuditOptions& o) {
         o.site_stride = 997;
         o.site_outcomes = true;
       }),
       "9cd16220ba74a852df9d140f571a8599f34b8d5488c4295b19b91c606e610985"},
      {"audit-pruned",
       audit([](fault::AuditOptions& o) {
         o.probe_bits = {63};
         o.prune = &kPruneMarker;
         o.site_outcomes = true;
       }),
       "a8208d18dc71b5129eac0c95c245f54f6deb6f2bf7168433e740bc2c87098c31"},
      {"compose-cached",
       compose(false,
               [](fault::ComposeOptions& o) {
                 o.lookup = [](const std::string&) { return std::nullopt; };
               }),
       "b93a5bb3fa1b9973804b007254d3e21cdd6b0a0bf59d5b79ec731a0b4681d1e5"},
      {"compose-adaptive",
       compose(false,
               [](fault::ComposeOptions& o) {
                 o.trials = 512;
                 o.max_half_width = 0.05;
               }),
       "93cccbd61b3f257cb296106567d95df995c17bd702769af32dd8319164c0349b"},
      {"compose-audit-strided",
       compose(true, [](fault::ComposeOptions& o) { o.site_stride = 997; }),
       "02b1dc5a5596ad3d8389f3539f8b1dca309b9889656d7d10c398d41c08ad0ca3"},
  };
  const Technique techniques[] = {Technique::kNone, Technique::kIrEddi,
                                  Technique::kHybrid, Technique::kFerrum};
  std::vector<Sha256> digests(std::size(modes));
  for (const workloads::Workload& workload : workloads::all()) {
    for (const Technique technique : techniques) {
      const auto build = pipeline::build(workload.source, technique);
      for (std::size_t m = 0; m < std::size(modes); ++m) {
        digests[m].update(modes[m].run(build.program));
        digests[m].update("\n");
      }
    }
  }
  for (std::size_t m = 0; m < std::size(modes); ++m) {
    EXPECT_EQ(digests[m].hex_digest(), modes[m].digest) << modes[m].name;
  }
}

/// Appends the timing model's output of one run to `sha`: cycles, then
/// every TimingStats array and counter, as decimal text.
void hash_timing(Sha256& sha, const vm::VmResult& result) {
  const vm::TimingStats& s = *result.timing_stats;
  std::string out = std::to_string(result.cycles);
  const auto add = [&out](std::uint64_t value) {
    out += " " + std::to_string(value);
  };
  for (int p = 0; p < vm::kPortClassCount; ++p) {
    for (int o = 0; o < masm::kInstOriginCount; ++o) {
      add(s.issues[p][o]);
      add(s.latency_cycles[p][o]);
    }
    add(s.busy_cycles[p]);
  }
  add(s.stall_dependence);
  add(s.stall_port);
  add(s.stall_issue_width);
  add(s.instructions);
  sha.update(out);
  sha.update("\n");
}

TEST(Goldens, TimingModelPinned) {
  // Byte pins on the timing model: cycles and every TimingStats field of
  // each workload x technique, under default parameters and under one
  // non-default set (alu_units 9 is clamped to kMaxUnitsPerClass). Fig 11
  // and modelled_overhead_ferrum are folds over these numbers, so a
  // host-speed change to the model must leave every digest in place.
  vm::TimingParams narrow;
  narrow.issue_width = 2;
  narrow.alu_units = 9;
  narrow.vec_units = 1;
  struct Pin {
    const char* name;
    vm::TimingParams params;
    const char* digest;
  };
  const Pin pins[] = {
      {"default", vm::TimingParams{},
       "340408dfe91aa8b0a18214ca79786d06030b6fcd60ba1e4606e78352805cb0fb"},
      {"issue2-alu9-vec1", narrow,
       "e44d3f28866c83a985d1243b58e43e7350ffba3d1e6549c38604b130f4629429"},
  };
  const Technique techniques[] = {Technique::kNone, Technique::kIrEddi,
                                  Technique::kHybrid, Technique::kFerrum};
  std::vector<Sha256> digests(std::size(pins));
  for (const workloads::Workload& workload : workloads::all()) {
    for (const Technique technique : techniques) {
      const auto build = pipeline::build(workload.source, technique);
      for (std::size_t p = 0; p < std::size(pins); ++p) {
        vm::VmOptions options;
        options.timing = true;
        options.timing_params = pins[p].params;
        const vm::VmResult result = vm::run(build.program, options);
        ASSERT_TRUE(result.ok()) << workload.name;
        hash_timing(digests[p], result);
      }
    }
  }
  for (std::size_t p = 0; p < std::size(pins); ++p) {
    EXPECT_EQ(digests[p].hex_digest(), pins[p].digest) << pins[p].name;
  }
}

TEST(Trace, RecordsExecutedInstructions) {
  auto build = pipeline::build(
      "int main() { print_int(7); return 0; }", Technique::kNone);
  vm::VmOptions options;
  options.trace_limit = 16;
  const vm::VmResult result = vm::run(build.program, options);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.trace.empty());
  EXPECT_LE(result.trace.size(), 16u);
  // First executed instruction is main's prologue push.
  EXPECT_NE(result.trace[0].find("main/prologue: pushq"), std::string::npos)
      << result.trace[0];
}

TEST(Trace, OffByDefault) {
  auto build = pipeline::build(
      "int main() { return 0; }", Technique::kNone);
  const vm::VmResult result = vm::run(build.program);
  EXPECT_TRUE(result.trace.empty());
}

}  // namespace
}  // namespace ferrum
