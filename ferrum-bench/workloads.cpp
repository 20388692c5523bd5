// The four workloads. Every cell starts from MiniC source text and runs
// the library's public entry points with the engine knobs a user leaves
// alone: fault::CampaignOptions{} (1000 trials, one campaign worker,
// checkpoint stride 64, batch 8), and fault::CampaignCell{} (the same
// trials and one inner job) for service cells. One worker keeps the figures steady on a shared host, where a campaign
// spread over every core waits on whichever core a co-tenant slows.
// Timestamps are taken from these files only, around the calls into each
// layer; with tracing off only the cell boundaries are timed.
#include <sched.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <optional>
#include <thread>

#include "bench.h"
#include "check/check.h"
#include "check/flow.h"
#include "check/prune.h"
#include "check/sections.h"
#include "fault/cell.h"
#include "pipeline/selective.h"
#include "service/client.h"
#include "service/service.h"
#include "vm/engine.h"
#include "vm/vm.h"

namespace fbench {

namespace fault = ferrum::fault;
namespace pipeline = ferrum::pipeline;
namespace vm = ferrum::vm;

namespace {

// campaign_full's fixed budget and cell_adaptive's planned budget.
constexpr int kTrials = fault::CampaignOptions{}.trials;
constexpr double kAdaptiveHalfWidth = 0.05;
// How often service_mix's memory phase sweeps over the stored cells. A
// memory hit takes a few milliseconds, and one sweep is a short window of
// host noise. Over five seeds cell_p50_ms on service_mix spread 0.16 with
// one sweep, 0.13 with eight, and 0.06 with eight on one CPU (see
// service_mix). Each cell's mean pools its sweeps, so the phase still
// counts once beside the disk phase in cell_p50_ms.
constexpr int kMemorySweeps = 8;

double ms(double seconds) { return seconds * 1e3; }

/// Runs passes until the budget is spent. In trace mode each pass runs
/// untraced and then traced over the same inputs; the difference of the
/// two walls, per cell, is the tracing overhead.
void drive(const Context& ctx, Totals& totals, Ledger& layers,
           const std::function<void(int pass, bool traced, Totals&)>& pass) {
  const double start = now_seconds();
  for (int p = 0; p == 0 || now_seconds() - start < ctx.seconds; ++p) {
    ctx.speed->mark();  // the reference for the pass's first samples
    if (ctx.trace) {
      Totals untraced;
      pass(p, false, untraced);
      Totals traced;
      pass(p, true, traced);
      layers.add("trace.overhead_ms",
                 ms(traced.busy_s - untraced.busy_s) /
                     static_cast<double>(traced.cells));
      totals.merge(traced);
    } else {
      pass(p, false, totals);
    }
    if (ctx.between_passes) {
      ctx.between_passes((now_seconds() - start) / ctx.seconds);
    }
  }
}

/// pipeline.* from one build: the wall, each pass, and what no pass covers.
void record_build(Ledger& layers, const pipeline::Build& build,
                  double build_s) {
  static const std::map<std::string, std::string> kPassMetric = {
      {"frontend", "pipeline.frontend_ms"},
      {"ir-protect", "pipeline.ir_protect_ms"},
      {"ir-verify", "pipeline.ir_verify_ms"},
      {"lower", "pipeline.lower_ms"},
      {"asm-verify", "pipeline.asm_verify_ms"},
      {"protect", "pipeline.protect_ms"},
      {"protect-verify", "pipeline.protect_verify_ms"},
      {"protect-check", "pipeline.protect_check_ms"},
  };
  std::map<std::string, double> per_metric;
  for (const auto& [name, metric] : kPassMetric) per_metric[metric] = 0.0;
  double passes_s = 0.0;
  for (const auto& [pass, seconds] : build.pass_seconds) {
    passes_s += seconds;
    const auto it = kPassMetric.find(pass);
    if (it != kPassMetric.end()) per_metric[it->second] += ms(seconds);
  }
  for (const auto& [metric, value] : per_metric) layers.add(metric, value);
  layers.add("pipeline.build_ms", ms(build_s));
  layers.add("pipeline.unattributed_ms", ms(build_s - passes_s));
  layers.add("pipeline.asm_insts",
             static_cast<double>(build.program.inst_count()));
}

/// vm.* probes: the pieces PreparedCampaign does in one constructor,
/// called one by one on the cell's program, outside the cell's wall.
void probe_vm(Ledger& layers, const ferrum::masm::AsmProgram& program) {
  const vm::VmOptions options;
  const double t0 = now_seconds();
  const vm::PredecodedProgram decoded(program);
  layers.add("vm.predecode_ms", ms(now_seconds() - t0));
  vm::Engine engine(decoded, options);
  const double t1 = now_seconds();
  const vm::VmResult golden = engine.run(options, nullptr, 0);
  const double golden_s = now_seconds() - t1;
  vm::CheckpointSet ckpts;
  const double t2 = now_seconds();
  engine.run_capturing(
      options,
      static_cast<std::uint64_t>(fault::CampaignOptions{}.ckpt_stride), ckpts);
  const double capturing_s = now_seconds() - t2;
  layers.add("vm.golden_ms", ms(golden_s));
  layers.add("vm.capture_ms", ms(capturing_s - golden_s));
  layers.add("vm.golden_steps_per_s",
             static_cast<double>(golden.steps) / golden_s);
}

/// One campaign cell: source -> build -> PreparedCampaign -> run_campaign,
/// the work `ferrumc campaign` does. Gate checks run after the cell's wall
/// is taken.
void campaign_cell(const Program& program, std::uint64_t seed, int trials,
                   double max_half_width, bool traced, Totals& totals,
                   Ledger& layers, Gate& gate) {
  std::string errors;
  const std::string what = std::string("campaign ") +
                           pipeline::technique_name(program.technique);
  double cell_s = 0.0;
  try {
    const double t0 = now_seconds();
    double probe_s = 0.0;
    double attributed_s = 0.0;  // build + prepare + campaign
    std::vector<std::uint64_t> golden_output;
    fault::CampaignResult result;
    {
      const pipeline::Build build =
          pipeline::build(*program.source, program.technique);
      const double t1 = now_seconds();
      fault::CampaignOptions options;
      options.trials = trials;
      options.seed = seed;
      options.max_half_width = max_half_width;
      const fault::PreparedCampaign prepared(build.program, options.vm,
                                             options.ckpt_stride);
      const double t2 = now_seconds();
      options.prepared = &prepared;
      result = fault::run_campaign(build.program, options);
      const double t3 = now_seconds();
      golden_output = prepared.golden.output;
      if (traced) {
        record_build(layers, build, t1 - t0);
        const int executed = result.trials();
        const auto& ff = result.ckpt.ff;
        layers.add("fault.prepare_ms", ms(t2 - t1));
        layers.add("fault.trials_ms", ms(result.wall_seconds));
        layers.add("fault.reduce_ms", ms(t3 - t2 - result.wall_seconds));
        layers.add("fault.trial_us", result.wall_seconds * 1e6 / executed);
        layers.add("fault.trials_per_s", executed / result.wall_seconds);
        layers.add("fault.trials", executed);
        layers.add("fault.steps_executed", static_cast<double>(ff.steps_executed));
        layers.add("fault.steps_skipped", static_cast<double>(ff.steps_skipped));
        layers.add("fault.restores", static_cast<double>(ff.restores));
        layers.add("fault.rejoins", static_cast<double>(ff.rejoins));
        layers.add("fault.ff_ratio", ff.ratio());
        layers.add("fault.rejoin_frac",
                   static_cast<double>(ff.rejoins) / executed);
        layers.add("fault.stop_frac", static_cast<double>(executed) / trials);
        layers.add("vm.checkpoints", static_cast<double>(prepared.ckpts.size()));
        layers.add("vm.ckpt_mb",
                   static_cast<double>(prepared.ckpts.snapshot_bytes()) /
                       (1024.0 * 1024.0));
        attributed_s = t3 - t0;
        const double p0 = now_seconds();
        probe_vm(layers, build.program);
        probe_s = now_seconds() - p0;
      }
    }
    cell_s = now_seconds() - t0 - probe_s;
    // What the wall holds beyond build + prepare + campaign: mostly
    // tearing the build and the golden state down.
    if (traced) layers.add("cell.unattributed_ms", ms(cell_s - attributed_s));
    errors = check_golden(golden_output, program.reference);
    const std::string counts =
        check_campaign(result, program.technique, trials);
    if (!counts.empty()) errors += (errors.empty() ? "" : "; ") + counts;
  } catch (const std::exception& e) {
    errors = e.what();
  }
  gate.record(what, errors);
  if (!errors.empty()) return;
  totals.add(program.kernel + "/" + what, ms(cell_s));
}

void campaign_passes(const Context& ctx, Totals& totals, Ledger& layers,
                     Gate& gate, int trials, double max_half_width) {
  drive(ctx, totals, layers, [&](int pass, bool traced, Totals& into) {
    for (std::size_t i = 0; i < ctx.programs.size(); ++i) {
      campaign_cell(ctx.programs[i], mix(ctx.seed, 0xce11, pass, i), trials,
                    max_half_width, traced, into, layers, gate);
      into.settle(ctx.speed->mark());
    }
  });
}

}  // namespace

void campaign_full(const Context& ctx, Totals& totals, Ledger& layers,
                   Gate& gate) {
  campaign_passes(ctx, totals, layers, gate, kTrials, 0.0);
}

void cell_adaptive(const Context& ctx, Totals& totals, Ledger& layers,
                   Gate& gate) {
  campaign_passes(ctx, totals, layers, gate, kTrials,
                  kAdaptiveHalfWidth);
}

void lint_static(const Context& ctx, Totals& totals, Ledger& layers,
                 Gate& gate) {
  namespace check = ferrum::check;
  drive(ctx, totals, layers, [&](int, bool traced, Totals& into) {
    for (const Program& program : ctx.programs) {
      std::string errors;
      double cell_s = 0.0;
      try {
        const double t0 = now_seconds();
        vm::VmResult timed;
        {
          const pipeline::Build build =
              pipeline::build(*program.source, program.technique);
          const double t1 = now_seconds();
          const check::CheckReport report = check::check_program(build.program);
          const double t2 = now_seconds();
          const check::prune::PruneReport prune =
              check::prune::prune_program(build.program);
          const double t3 = now_seconds();
          const check::sections::SectionMap sections =
              check::sections::build_sections(build.program);
          const double t4 = now_seconds();
          const check::flow::FlowReport flow =
              check::flow::flow_program(build.program);
          const double t5 = now_seconds();
          // `ferrumc plan` plans over the unprotected lowering.
          std::optional<pipeline::SelectivePlan> plan;
          if (program.technique == Technique::kNone) {
            pipeline::SelectiveOptions selective;
            selective.strategy = pipeline::SelectiveOptions::Strategy::kAnalysis;
            selective.budget = 0.25;
            plan = pipeline::plan_selective(build.program, selective, {});
          }
          const double t6 = now_seconds();
          vm::VmOptions timing;
          timing.timing = true;
          timed = vm::run(build.program, timing);
          const double t7 = now_seconds();
          if (flow.sites.size() != prune.sites.size()) {
            errors = "flow and prune enumerate different site counts";
          }
          if (plan.has_value() &&
              plan->selected.size() !=
                  static_cast<std::size_t>(plan->budget_sites)) {
            errors = "plan selected a different count than its budget";
          }
          if (traced) {
            record_build(layers, build, t1 - t0);
            layers.add("check.check_ms", ms(t2 - t1));
            layers.add("check.prune_ms", ms(t3 - t2));
            layers.add("check.sections_ms", ms(t4 - t3));
            layers.add("check.flow_ms", ms(t5 - t4));
            if (plan.has_value()) layers.add("check.plan_ms", ms(t6 - t5));
            layers.add("check.sites", static_cast<double>(flow.sites.size()));
            layers.add("check.dead_bit_frac", prune.dead_fraction());
            layers.add("vm.timing_ms", ms(t7 - t6));
          }
          cell_s = t7 - t0;
        }
        const double end = now_seconds();
        if (traced) layers.add("cell.unattributed_ms", ms(end - t0 - cell_s));
        cell_s = end - t0;
        const std::string golden = check_golden(timed.output, program.reference);
        if (!golden.empty()) errors += (errors.empty() ? "" : "; ") + golden;
        if (timed.cycles == 0) errors += (errors.empty() ? "" : "; ") +
                                         std::string("timing model gave 0 cycles");
      } catch (const std::exception& e) {
        errors = e.what();
      }
      const std::string what =
          std::string("lint ") + pipeline::technique_name(program.technique);
      gate.record(what, errors);
      if (errors.empty()) into.add(program.kernel + "/" + what, ms(cell_s));
      into.settle(ctx.speed->mark());
    }
  });
}

namespace {

/// One in-process daemon serving a unix socket on its own thread, with
/// one connected client. Destruction asks it to stop and joins.
class ServedDaemon {
 public:
  ServedDaemon(const std::string& socket, const std::string& cache_dir)
      : daemon_(ferrum::service::ServiceOptions{2, cache_dir}) {
    std::string error;
    listener_ = ferrum::Listener::bind_unix(socket, &error);
    if (!listener_.valid()) throw std::runtime_error("listen: " + error);
    server_ = std::thread([this] { daemon_.serve(listener_); });
    client_.emplace(ferrum::service::Client::connect(socket, error));
    if (!client_->valid()) {
      stop();
      throw std::runtime_error("connect: " + error);
    }
  }
  ~ServedDaemon() { stop(); }
  ServedDaemon(const ServedDaemon&) = delete;
  ServedDaemon& operator=(const ServedDaemon&) = delete;

  ferrum::service::Client& client() { return *client_; }
  std::uint64_t counter(const std::string& name) {
    return daemon_.metrics().counter(name).value();
  }

 private:
  void stop() {
    if (!server_.joinable()) return;
    std::string error;
    if (!client_.has_value() || !client_->valid() ||
        !client_->shutdown_server(error)) {
      listener_.shutdown();
    }
    server_.join();
  }

  ferrum::service::Daemon daemon_;
  ferrum::Listener listener_;
  std::thread server_;
  std::optional<ferrum::service::Client> client_;
};

/// The technique spelling a campaign cell takes (fault/cell.h).
const char* cell_technique(Technique technique) {
  switch (technique) {
    case Technique::kNone: return "none";
    case Technique::kIrEddi: return "ir-eddi";
    case Technique::kHybrid: return "hybrid";
    case Technique::kFerrum: return "ferrum";
  }
  return "?";
}

/// Submits one cell and waits for its result frame.
ferrum::service::CellResult submit_one(ferrum::service::Client& client,
                                       const fault::CampaignCell& cell) {
  std::string error;
  const auto job = client.submit({cell}, error);
  if (!job.has_value()) throw std::runtime_error("submit: " + error);
  std::optional<ferrum::service::CellResult> got;
  if (!client.results(
          *job, [&](const ferrum::service::CellResult& r) { got = r; },
          error)) {
    throw std::runtime_error("results: " + error);
  }
  if (!got.has_value()) throw std::runtime_error("no result frame");
  if (!got->error.empty()) throw std::runtime_error("cell: " + got->error);
  return *got;
}

}  // namespace

void service_mix(const Context& ctx, Totals& totals, Ledger& layers,
                 Gate& gate) {
  namespace fs = std::filesystem;
  static const char* const kCounters[][2] = {
      {"service/cache/hits", "service.cache_hits"},
      {"service/cache/misses", "service.cache_misses"},
      {"service/golden/built", "service.golden_built"},
      {"service/golden/reused", "service.golden_reused"},
      {"service/trials_executed", "service.trials_executed"},
  };
  // The client, the daemon's threads (created later, so they inherit it)
  // and the speed probe share one CPU. The probe then times the CPU the
  // daemon's workers run on, and no answer waits on a wakeup across CPUs,
  // whose cost on a shared host swings with co-tenant load. One client
  // waits for each answer, so no two of these threads are ever busy at
  // once.
  cpu_set_t one_cpu;
  CPU_ZERO(&one_cpu);
  CPU_SET(::sched_getcpu(), &one_cpu);
  if (::sched_setaffinity(0, sizeof(one_cpu), &one_cpu) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
  int instance = 0;
  drive(ctx, totals, layers, [&](int round, bool traced, Totals& into) {
    // Each round serves all 32 programs in four phases: cold cells
    // (execute, then write the store), reseeded siblings (golden state
    // reused), a daemon restart followed by one repeat of every cold cell
    // (disk-tier reads), then kMemorySweeps more repeats (memory hits).
    const std::string tag = std::to_string(::getpid()) + "-" +
                            std::to_string(instance++);
    const std::string cache_dir = "fbench-cache-" + tag;
    fs::remove_all(cache_dir);
    std::map<std::string, double> counters;
    double restart_misses = 0.0;
    try {
      // The cold cells that answered, and the bytes a warm answer to each
      // must repeat.
      std::vector<fault::CampaignCell> cells;
      std::vector<const Program*> owners;
      std::vector<std::string> answers;
      {
        ServedDaemon first("fbench-" + tag + "a.sock", cache_dir);
        for (int reseed = 0; reseed < 2; ++reseed) {
          for (std::size_t k = 0; k < ctx.programs.size(); ++k) {
            const Program& program = ctx.programs[k];
            fault::CampaignCell cell;
            cell.program = *program.source;
            cell.technique = cell_technique(program.technique);
            cell.seed = mix(ctx.seed, 0x5e4, round, k * 2 + reseed);
            std::string errors;
            try {
              const double t0 = now_seconds();
              const auto result = submit_one(first.client(), cell);
              const double latency = now_seconds() - t0;
              errors = check_result_bytes(result.result_bytes,
                                          program.technique, cell.trials);
              if (result.cached) {
                errors += (errors.empty() ? "" : "; ") +
                          std::string("fresh cell answered from the store");
              }
              if (errors.empty()) {
                into.add(std::string(reseed == 0 ? "cold/" : "reseeded/") +
                             cell.technique + "/" + program.kernel,
                         ms(latency), false);
              }
              if (traced) {
                layers.add(reseed == 0 ? "service.cold_ms"
                                       : "service.reseeded_ms",
                           ms(latency));
                const auto* wall = result.wallclock.find("wall_seconds");
                layers.add("cell.unattributed_ms",
                           ms(latency - (wall ? wall->as_double() : 0.0)));
              }
              if (reseed == 0) {
                cells.push_back(cell);
                owners.push_back(&program);
                answers.push_back(result.result_bytes);
              }
            } catch (const std::exception& e) {
              errors = e.what();
            }
            gate.record(reseed == 0 ? "service cold" : "service reseeded",
                        errors);
            into.settle(ctx.speed->mark());
          }
        }
        if (traced) {
          std::string error;
          const double t0 = now_seconds();
          if (!first.client().stats(error).has_value()) {
            throw std::runtime_error("stats: " + error);
          }
          layers.add("service.roundtrip_ms", ms(now_seconds() - t0));
        }
        for (const auto& [name, metric] : kCounters) {
          counters[metric] += static_cast<double>(first.counter(name));
        }
      }
      const double restart_start = now_seconds();
      ServedDaemon second("fbench-" + tag + "b.sock", cache_dir);
      if (traced) {
        layers.add("service.restart_ms", ms(now_seconds() - restart_start));
      }
      // Sweep 0 reads the disk tier, the later sweeps hit memory.
      for (int sweep = 0; sweep <= kMemorySweeps; ++sweep) {
        const bool disk = sweep == 0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
          const Technique technique = owners[i]->technique;
          const std::string type = std::string(disk ? "disk/" : "mem/") +
                                   cells[i].technique + "/" +
                                   owners[i]->kernel;
          std::string errors;
          try {
            const std::uint64_t trials_before =
                second.counter("service/trials_executed");
            const double t0 = now_seconds();
            const auto result = submit_one(second.client(), cells[i]);
            const double latency = now_seconds() - t0;
            const std::uint64_t trials_run =
                second.counter("service/trials_executed") - trials_before;
            if (disk && !result.cached && known_unstable(technique)) {
              // The restarted daemon rebuilt the program under another key
              // and ran the cell again (see known_unstable). Check the
              // answer as a fresh one; the memory sweeps must repeat it.
              gate.known_defects["restart missed the disk tier (" +
                                 cells[i].technique + ")"] += 1;
              restart_misses += 1.0;
              errors = check_result_bytes(result.result_bytes, technique,
                                          cells[i].trials);
              answers[i] = result.result_bytes;
            } else {
              errors = check_warm(answers[i], result.result_bytes,
                                  result.cached, trials_run);
              if (errors.empty()) into.add(type, ms(latency));
              if (traced) {
                layers.add(disk ? "service.disk_hit_ms" : "service.mem_hit_ms",
                           ms(latency));
              }
            }
          } catch (const std::exception& e) {
            errors = e.what();
          }
          gate.record("service " + type, errors);
        }
        // Warm answers take a few milliseconds: one speed reading per
        // sweep instead of per answer.
        into.settle(ctx.speed->mark());
      }
      for (const auto& [name, metric] : kCounters) {
        counters[metric] += static_cast<double>(second.counter(name));
      }
    } catch (const std::exception& e) {
      gate.record("service round", e.what());
    }
    if (traced) {
      for (const auto& [metric, value] : counters) layers.add(metric, value);
      layers.add("service.restart_misses", restart_misses);
    }
    fs::remove_all(cache_dir);
  });
}

}  // namespace fbench
