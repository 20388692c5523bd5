// ferrum-bench entry point:
//   ferrum_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
// Sets up before the run and after each quarter of it (the median is
// setup_s), runs the workload for the given seconds, checks every answer,
// and prints a per-metric report (median, p90, sample count), a JSON
// report line, and last the result line {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics with --trace 0, the
// per-layer ledger with --trace 1.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "fault/cell.h"
#include "telemetry/json.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

namespace {

using namespace fbench;
using ferrum::telemetry::Json;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"cells_per_s", "1/s"},
    {"cell_p50_ms", "ms"},     {"peak_rss_mb", "MiB"},
    {"modelled_overhead_ferrum", "ratio"},
};

// Every workload reports every layer metric; a layer the workload does
// not reach reads 0 with 0 samples.
constexpr MetricDef kPerLayer[] = {
    {"pipeline.build_ms", "ms"},
    {"pipeline.frontend_ms", "ms"},
    {"pipeline.ir_protect_ms", "ms"},
    {"pipeline.ir_verify_ms", "ms"},
    {"pipeline.lower_ms", "ms"},
    {"pipeline.asm_verify_ms", "ms"},
    {"pipeline.protect_ms", "ms"},
    {"pipeline.protect_verify_ms", "ms"},
    {"pipeline.protect_check_ms", "ms"},
    {"pipeline.unattributed_ms", "ms"},
    {"pipeline.asm_insts", "count"},
    {"pipeline.unstable_builds", "count"},
    {"check.check_ms", "ms"},
    {"check.prune_ms", "ms"},
    {"check.sections_ms", "ms"},
    {"check.flow_ms", "ms"},
    {"check.plan_ms", "ms"},
    {"check.sites", "count"},
    {"check.dead_bit_frac", "ratio"},
    {"vm.predecode_ms", "ms"},
    {"vm.golden_ms", "ms"},
    {"vm.capture_ms", "ms"},
    {"vm.checkpoints", "count"},
    {"vm.ckpt_mb", "MiB"},
    {"vm.golden_steps_per_s", "1/s"},
    {"vm.timing_ms", "ms"},
    {"fault.prepare_ms", "ms"},
    {"fault.trials_ms", "ms"},
    {"fault.reduce_ms", "ms"},
    {"fault.trial_us", "us"},
    {"fault.trials_per_s", "1/s"},
    {"fault.trials", "count"},
    {"fault.steps_executed", "count"},
    {"fault.steps_skipped", "count"},
    {"fault.restores", "count"},
    {"fault.rejoins", "count"},
    {"fault.ff_ratio", "ratio"},
    {"fault.rejoin_frac", "ratio"},
    {"fault.stop_frac", "ratio"},
    {"service.cold_ms", "ms"},
    {"service.reseeded_ms", "ms"},
    {"service.disk_hit_ms", "ms"},
    {"service.mem_hit_ms", "ms"},
    {"service.restart_ms", "ms"},
    {"service.restart_misses", "count"},
    {"service.roundtrip_ms", "ms"},
    {"service.cache_hits", "count"},
    {"service.cache_misses", "count"},
    {"service.golden_built", "count"},
    {"service.golden_reused", "count"},
    {"service.trials_executed", "count"},
    {"cell.unattributed_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

int usage() {
  std::fprintf(stderr,
               "usage: ferrum_bench --workload "
               "<campaign_full|cell_adaptive|lint_static|service_mix> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  out = value;
  return true;
}

/// Builds every (kernel, technique) program and its reference output.
void set_up(Context& ctx, Gate& gate) {
  ctx.programs.clear();
  for (const auto& workload : ferrum::workloads::all()) {
    for (const Technique technique : kTechniques) {
      Program program;
      program.kernel = workload.name;
      program.technique = technique;
      program.source = &workload.source;
      std::string errors;
      try {
        program.build = std::make_unique<ferrum::pipeline::Build>(
            ferrum::pipeline::build(*program.source, technique));
        program.reference = ferrum::ir::interpret(*program.build->module);
        if (!program.reference.ok()) errors = "reference run did not finish";
      } catch (const std::exception& e) {
        errors = e.what();
      }
      gate.record("set-up " + workload.name, errors);
      ctx.programs.push_back(std::move(program));
    }
  }
}

/// Geomean over the kernels of ferrum/none timing-model cycles (Fig 11).
double modelled_overhead(const Context& ctx, Gate& gate) {
  double log_sum = 0.0;
  int kernels = 0;
  for (std::size_t k = 0; k < ctx.programs.size() / kTechniques.size(); ++k) {
    double cycles[2] = {0.0, 0.0};
    bool ok = true;
    for (int side = 0; side < 2; ++side) {
      const Program& program =
          ctx.programs[k * kTechniques.size() + (side == 0 ? 0 : 3)];
      std::string errors = "no set-up build";
      if (program.build != nullptr) {
        ferrum::vm::VmOptions options;
        options.timing = true;
        const auto run = ferrum::vm::run(program.build->program, options);
        errors = check_golden(run.output, program.reference);
        cycles[side] = static_cast<double>(run.cycles);
        if (errors.empty() && run.cycles == 0) errors = "0 modelled cycles";
      }
      gate.record("timing model", errors);
      ok = ok && errors.empty();
    }
    if (!ok) continue;
    log_sum += std::log(cycles[1] / cycles[0]);
    ++kernels;
  }
  return kernels == 0 ? 0.0 : std::exp(log_sum / kernels);
}

struct Reported {
  double median = 0.0;
  double p90 = 0.0;
  std::size_t n = 0;
};

/// The writer's fixed layout on one line: drops each newline and the
/// indentation after it (string values never hold a raw newline).
std::string one_line(const Json& json) {
  const std::string pretty = json.dump();
  std::string out;
  for (std::size_t i = 0; i < pretty.size(); ++i) {
    if (pretty[i] != '\n') {
      out += pretty[i];
      continue;
    }
    while (i + 1 < pretty.size() && pretty[i + 1] == ' ') ++i;
  }
  return out;
}

Reported summarise(const std::vector<double>* values) {
  if (values == nullptr || values->empty()) return {};
  return {percentile(*values, 0.5), percentile(*values, 0.9), values->size()};
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 2;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      have_seed = parse_u64(value, seed);
      if (!have_seed) return usage();
    } else if (std::strcmp(flag, "--seconds") == 0) {
      if (!parse_u64(value, seconds) || seconds == 0) return usage();
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (!parse_u64(value, trace) || trace > 1) return usage();
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || seconds == 0 || trace > 1) return usage();
  void (*run)(const Context&, Totals&, Ledger&, Gate&) = nullptr;
  if (workload == "campaign_full") run = campaign_full;
  if (workload == "cell_adaptive") run = cell_adaptive;
  if (workload == "lint_static") run = lint_static;
  if (workload == "service_mix") run = service_mix;
  if (run == nullptr) return usage();

  Context ctx;
  ctx.seed = seed;
  ctx.seconds = static_cast<double>(seconds);
  ctx.trace = trace == 1;
  Gate gate;
  // One set-up before the run and one after each quarter of it.
  std::vector<double> setup_s;
  SpeedProbe speed;
  ctx.speed = &speed;
  const auto timed_set_up = [&](Context& into, Gate& gate_into) {
    speed.mark();
    const double t0 = now_seconds();
    set_up(into, gate_into);
    const double seconds_taken = now_seconds() - t0;
    setup_s.push_back(seconds_taken * speed.mark());
  };
  timed_set_up(ctx, gate);
  // Peak RSS is read after the first pass: every cell type has run once,
  // and the figure does not depend on how many passes the seconds allow
  // (later service rounds land in other malloc arenas of new daemon
  // threads, which moved the process peak by a fifth from run to run).
  int passes_done = 0;
  double peak_rss = 0.0;
  int quarters_done = 0;
  ctx.between_passes = [&](double spent) {
    if (++passes_done == 1) peak_rss = peak_rss_mb();
    while (quarters_done < 4 && spent >= (quarters_done + 1) / 4.0) {
      ++quarters_done;
      Context again;
      timed_set_up(again, gate);
    }
  };

  Totals totals;
  Ledger layers;
  run(ctx, totals, layers, gate);
  // Key invariance: a rebuild of each program in this process must print
  // the same assembly (and so get the same result-store key) as its set-up
  // build. A break fails the gate, except in the techniques known_unstable
  // names, where it is counted as that known defect.
  int unstable = 0;
  for (const Program& program : ctx.programs) {
    if (program.build == nullptr) continue;
    std::string errors;
    try {
      const auto again = ferrum::pipeline::build(*program.source,
                                                 program.technique);
      if (ferrum::fault::program_hash(again.program) !=
          ferrum::fault::program_hash(program.build->program)) {
        ++unstable;
        if (known_unstable(program.technique)) {
          gate.known_defects[std::string("rebuild hash differs (") +
                             ferrum::pipeline::technique_name(
                                 program.technique) +
                             ")"] += 1;
        } else {
          errors = "rebuild hash differs";
        }
      }
    } catch (const std::exception& e) {
      errors = e.what();
    }
    gate.record("rebuild " + program.kernel, errors);
  }
  layers.add("pipeline.unstable_builds", unstable);
  const double overhead = modelled_overhead(ctx, gate);
  Json values = Json::object();
  std::map<std::string, Reported> reported;
  reported["setup_s"] = summarise(&setup_s);
  // Each cell type's mean speed-scaled latency over the run's passes
  // (see Totals).
  std::vector<double> type_ms;
  double type_sum_s = 0.0;
  for (const auto& [name, type] : totals.types) {
    double sum = 0.0;
    for (const double v : type.ms) sum += v;
    const double mean = sum / static_cast<double>(type.ms.size());
    type_sum_s += mean * 1e-3;
    if (type.in_percentiles) type_ms.push_back(mean);
  }
  reported["cells_per_s"] = {
      type_sum_s > 0.0 ? static_cast<double>(totals.types.size()) / type_sum_s
                       : 0.0,
      0.0, totals.cells};
  reported["cell_p50_ms"] = {percentile(type_ms, 0.5), 0.0, totals.cells};
  if (passes_done == 0) peak_rss = peak_rss_mb();
  reported["peak_rss_mb"] = {peak_rss, 0.0, 1};
  reported["modelled_overhead_ferrum"] = {overhead, 0.0, 1};
  for (const MetricDef& def : kPerLayer) {
    reported[def.name] = summarise(layers.find(def.name));
  }
  for (const auto& [name, series] : layers.series()) {
    if (reported.count(name) == 0) {
      std::fprintf(stderr, "ferrum_bench: undeclared layer metric %s\n",
                   name.c_str());
      gate.record("ledger", "undeclared metric " + name);
    }
  }

  // Human-readable report, then the JSON report line, then the result.
  std::printf("ferrum-bench workload=%s seed=%llu seconds=%llu trace=%d\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seconds), ctx.trace ? 1 : 0);
  std::printf("machine %s\n", one_line(fingerprint()).c_str());
  // Timings of the speed probe: the end-to-end times above are scaled by
  // kReferenceMs / these (see SpeedProbe), the ledger below is raw.
  const Reported probe = summarise(&speed.timings());
  std::printf("speed probe ms median %.6g p90 %.6g n %zu (reference %.6g)\n",
              probe.median, probe.p90, probe.n, SpeedProbe::kReferenceMs);
  std::printf("%-28s %-6s %14s %14s %7s\n", "metric", "unit", "median", "p90",
              "n");
  Json detail = Json::object();
  // The report lists the end-to-end metrics, plus the ledger when traced;
  // the result line carries exactly one of the two groups.
  const auto report_group = [&](const MetricDef* defs, std::size_t count,
                                bool emit) {
    for (std::size_t i = 0; i < count && (emit || defs != kPerLayer); ++i) {
      const Reported& r = reported[defs[i].name];
      std::printf("%-28s %-6s %14.6g %14.6g %7zu\n", defs[i].name,
                  defs[i].unit, r.median, r.p90, r.n);
      Json entry = Json::object();
      entry["unit"] = defs[i].unit;
      entry["median"] = r.median;
      entry["p90"] = r.p90;
      entry["n"] = static_cast<std::uint64_t>(r.n);
      entry["seed"] = seed;
      detail[defs[i].name] = entry;
      if (emit) {
        Json value = Json::object();
        value["value"] = r.median;
        value["unit"] = defs[i].unit;
        values[defs[i].name] = value;
      }
    }
  };
  report_group(kEndToEnd, std::size(kEndToEnd), !ctx.trace);
  report_group(kPerLayer, std::size(kPerLayer), ctx.trace);
  const double failed_frac =
      gate.attempted == 0 ? 1.0
                          : static_cast<double>(gate.failed) / gate.attempted;
  std::printf("gate attempted=%llu failed=%llu failed_frac=%.6g\n",
              static_cast<unsigned long long>(gate.attempted),
              static_cast<unsigned long long>(gate.failed), failed_frac);
  for (const std::string& failure : gate.first_failures) {
    std::printf("gate failure: %s\n", failure.c_str());
  }
  Json known = Json::object();
  for (const auto& [defect, count] : gate.known_defects) {
    std::printf("known defect: %s x%llu\n", defect.c_str(),
                static_cast<unsigned long long>(count));
    known[defect] = count;
  }

  Json report = Json::object();
  report["workload"] = workload;
  report["seed"] = seed;
  report["seconds"] = seconds;
  report["trace"] = ctx.trace;
  report["fingerprint"] = fingerprint();
  report["failed_frac"] = failed_frac;
  report["known_defects"] = known;
  Json probe_json = Json::object();
  probe_json["median"] = probe.median;
  probe_json["p90"] = probe.p90;
  probe_json["n"] = static_cast<std::uint64_t>(probe.n);
  probe_json["reference"] = SpeedProbe::kReferenceMs;
  report["speed_probe_ms"] = probe_json;
  report["metrics"] = detail;
  Json report_line = Json::object();
  report_line["ferrum_bench_report"] = report;
  std::printf("%s\n", one_line(report_line).c_str());

  Json result = Json::object();
  result["correct"] = gate.failed == 0 && gate.attempted > 0;
  result["attempted"] = gate.attempted;
  result["failed"] = gate.failed;
  result["metrics"] = values;
  std::printf("%s\n", one_line(result).c_str());
  return 0;
}
