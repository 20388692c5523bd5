// Substrate microbenchmarks: VM interpretation throughput (switch vs
// threaded dispatch), the cost of enabling the timing model (per-technique
// `timing` rows), and campaign
// trial throughput cold vs checkpointed vs threaded with golden rejoin,
// per technique. Not a paper experiment, but documents what one
// fault-injection trial costs — and what the snapshot/fast-forward engine
// and the threaded inner loop buy back.
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_util.h"
#include "fault/campaign.h"
#include "pipeline/pipeline.h"
#include "telemetry/export.h"
#include "vm/vm.h"
#include "workloads/workloads.h"

using namespace ferrum;
using pipeline::Technique;

namespace {

void BM_VmRun(benchmark::State& state, Technique technique, bool timing,
              vm::DispatchMode dispatch = vm::DispatchMode::kAuto) {
  const auto& w = workloads::by_name("pathfinder");
  auto build = pipeline::build(w.source, technique);
  vm::VmOptions options;
  options.timing = timing;
  options.dispatch = dispatch;
  std::uint64_t steps = 0;
  for (auto _ : state) {
    const auto result = vm::run(build.program, options);
    if (!result.ok()) {
      state.SkipWithError("run failed");
      return;
    }
    steps = result.steps;
    benchmark::DoNotOptimize(result.return_value);
  }
  state.counters["dyn_insts"] = static_cast<double>(steps);
  state.SetItemsProcessed(static_cast<std::int64_t>(steps) *
                          state.iterations());
}

/// Best-of-`reps` Minst/s of one run configuration (steady-clock; the
/// best-of filters scheduler noise on the shared CI machine).
double minst_per_second(const masm::AsmProgram& program,
                        const vm::VmOptions& options, int reps) {
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const auto result = vm::run(program, options);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (!result.ok() || seconds <= 0.0) continue;
    const double rate =
        static_cast<double>(result.steps) / seconds / 1e6;
    if (rate > best) best = rate;
  }
  return best;
}

double trials_per_second(const fault::CampaignResult& result, int trials) {
  return result.wall_seconds > 0.0 ? trials / result.wall_seconds : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  // Telemetry artifact (written up front; google-benchmark's timing goes
  // to stdout): one profiled run per technique on the microbenchmark
  // workload — dynamic footprint and instruction mix under `metrics`.
  {
    benchutil::BenchReport report("bench_vm");
    const auto& w = workloads::by_name("pathfinder");
    const Technique techniques[] = {Technique::kNone, Technique::kHybrid,
                                    Technique::kFerrum};
    for (Technique technique : techniques) {
      auto build = pipeline::build(w.source, technique);
      vm::VmOptions options;
      options.profile = true;
      const auto result = vm::run(build.program, options);
      if (result.ok()) {
        telemetry::Json row = telemetry::Json::object();
        row["steps"] = result.steps;
        row["fi_sites"] = result.fi_sites;
        row["profile"] = telemetry::to_json(*result.profile);
        report.metrics()["techniques"]
            [pipeline::technique_name(technique)] = row;
      }
    }

    // Dispatch throughput: functional Minst/s under the portable switch
    // loop vs the computed-goto threaded loop, per technique. The result
    // equivalence flag goes under `metrics` (it must hold everywhere);
    // the rates are wall-clock observability.
    {
      const bool threaded = vm::threaded_dispatch_available();
      for (Technique technique : techniques) {
        auto build = pipeline::build(w.source, technique);
        vm::VmOptions sw;
        sw.dispatch = vm::DispatchMode::kSwitch;
        const auto sw_run = vm::run(build.program, sw);
        bool equivalent = sw_run.ok();
        double threaded_rate = 0.0;
        if (threaded) {
          vm::VmOptions th;
          th.dispatch = vm::DispatchMode::kThreaded;
          const auto th_run = vm::run(build.program, th);
          equivalent = equivalent && th_run.status == sw_run.status &&
                       th_run.output == sw_run.output &&
                       th_run.steps == sw_run.steps &&
                       th_run.fi_sites == sw_run.fi_sites &&
                       th_run.return_value == sw_run.return_value;
          threaded_rate = minst_per_second(build.program, th, 3);
        }
        const double switch_rate = minst_per_second(build.program, sw, 3);
        const char* name = pipeline::technique_name(technique);
        report.metrics()["dispatch_equivalent"][name] = equivalent;
        telemetry::Json row = telemetry::Json::object();
        row["threaded_available"] = threaded;
        row["switch_minst_per_second"] = switch_rate;
        row["threaded_minst_per_second"] = threaded_rate;
        row["speedup"] =
            switch_rate > 0.0 ? threaded_rate / switch_rate : 0.0;
        report.wallclock()["dispatch"][name] = row;
        std::printf("dispatch %-8s switch %7.1f Minst/s   threaded %7.1f "
                    "Minst/s   speedup %5.2fx\n",
                    name, switch_rate, threaded_rate,
                    switch_rate > 0.0 ? threaded_rate / switch_rate : 0.0);

        // Timing-model cost: the same golden run with the port/dependency
        // model on (it always runs in the switch loop). The model only
        // observes execution, so output, steps and status must equal the
        // plain switch run's.
        vm::VmOptions timed;
        timed.timing = true;
        const auto timed_run = vm::run(build.program, timed);
        report.metrics()["timing_equivalent"][name] =
            sw_run.ok() && timed_run.status == sw_run.status &&
            timed_run.output == sw_run.output &&
            timed_run.steps == sw_run.steps;
        const double timing_rate = minst_per_second(build.program, timed, 3);
        telemetry::Json timing_row = telemetry::Json::object();
        timing_row["timing_minst_per_second"] = timing_rate;
        timing_row["switch_minst_per_second"] = switch_rate;
        timing_row["cost_ratio"] =
            timing_rate > 0.0 ? switch_rate / timing_rate : 0.0;
        report.wallclock()["timing"][name] = timing_row;
        std::printf("timing   %-8s model  %7.1f Minst/s   cost vs switch "
                    "%5.2fx\n",
                    name, timing_rate,
                    timing_rate > 0.0 ? switch_rate / timing_rate : 0.0);
      }
    }

    // Campaign throughput per technique, three engine configurations:
    //   cold          stride=0, switch dispatch, scalar — the reference
    //   switch_scalar checkpointed, switch dispatch, scalar, golden
    //                 rejoin off — the pre-threading engine (PR 4's
    //                 "ckpt" row), the speedup baseline
    //   default       checkpointed, threaded dispatch, golden rejoin —
    //                 what run_campaign does out of the box
    // Outcome counts are deterministic and identical on every path
    // (asserted into `metrics`); trials/sec and speedups are wall-clock.
    {
      const int trials = benchutil::env_trials(256);
      const int jobs = benchutil::env_jobs();
      const int stride_knob = benchutil::env_ckpt_stride();
      const int stride = stride_knob == 0 ? 64 : stride_knob;
      for (Technique technique : techniques) {
        auto build = pipeline::build(w.source, technique);
        fault::CampaignOptions campaign;
        campaign.trials = trials;
        campaign.jobs = jobs;
        campaign.vm.dispatch = vm::DispatchMode::kSwitch;
        campaign.vm.golden_rejoin = false;
        campaign.ckpt_stride = 0;
        const auto cold = fault::run_campaign(build.program, campaign);
        campaign.ckpt_stride = stride;
        const auto scalar = fault::run_campaign(build.program, campaign);
        campaign.vm.dispatch = vm::DispatchMode::kAuto;
        campaign.vm.golden_rejoin = true;
        const auto fast = fault::run_campaign(build.program, campaign);

        const char* name = pipeline::technique_name(technique);
        report.metrics()["campaign"][name] = telemetry::to_json(cold);
        const std::string cold_dump = telemetry::to_json(cold).dump();
        report.metrics()["campaign_equivalent"][name] =
            cold_dump == telemetry::to_json(scalar).dump() &&
            cold_dump == telemetry::to_json(fast).dump();

        telemetry::Json row = telemetry::Json::object();
        row["trials"] = trials;
        const double cold_tps = trials_per_second(cold, trials);
        const double scalar_tps = trials_per_second(scalar, trials);
        const double fast_tps = trials_per_second(fast, trials);
        row["cold_trials_per_second"] = cold_tps;
        row["switch_scalar_trials_per_second"] = scalar_tps;
        row["ckpt_trials_per_second"] = fast_tps;
        row["speedup"] = cold_tps > 0.0 ? fast_tps / cold_tps : 0.0;
        row["speedup_vs_switch_scalar"] =
            scalar_tps > 0.0 ? fast_tps / scalar_tps : 0.0;
        row["cold"] = telemetry::wallclock_json(cold);
        row["ckpt"] = telemetry::wallclock_json(fast);
        report.wallclock()["campaign_throughput"][name] = row;
        std::printf(
            "campaign %-8s cold %9.1f trials/s   ckpt+switch %9.1f "
            "trials/s   ckpt+threaded %9.1f trials/s   vs-scalar "
            "%5.2fx\n",
            name, cold_tps, scalar_tps, fast_tps,
            scalar_tps > 0.0 ? fast_tps / scalar_tps : 0.0);
      }
    }
    report.write();
  }

  benchmark::RegisterBenchmark(
      "VmRun/raw", [](benchmark::State& s) {
        BM_VmRun(s, Technique::kNone, false);
      })->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark(
      "VmRun/raw_switch", [](benchmark::State& s) {
        BM_VmRun(s, Technique::kNone, false, vm::DispatchMode::kSwitch);
      })->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark(
      "VmRun/raw_timing", [](benchmark::State& s) {
        BM_VmRun(s, Technique::kNone, true);
      })->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark(
      "VmRun/ferrum", [](benchmark::State& s) {
        BM_VmRun(s, Technique::kFerrum, false);
      })->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark(
      "VmRun/ferrum_switch", [](benchmark::State& s) {
        BM_VmRun(s, Technique::kFerrum, false, vm::DispatchMode::kSwitch);
      })->Unit(benchmark::kMicrosecond);
  benchmark::RegisterBenchmark(
      "VmRun/hybrid", [](benchmark::State& s) {
        BM_VmRun(s, Technique::kHybrid, false);
      })->Unit(benchmark::kMicrosecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
