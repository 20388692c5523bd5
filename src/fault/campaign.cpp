#include "fault/campaign.h"

#include <bit>
#include <chrono>
#include <optional>
#include <span>
#include <stdexcept>

// Types and inline lookups only — see fault/prune_map.h for why this adds
// no link dependency on ferrum_check.
#include "check/prune.h"
#include "fault/prune_map.h"
#include "fault/step_budget.h"
#include "fault/trial_executor.h"
#include "masm/cfg.h"
#include "support/rng.h"
#include "vm/engine.h"

namespace ferrum::fault {

const char* outcome_name(Outcome outcome) {
  switch (outcome) {
    case Outcome::kBenign: return "benign";
    case Outcome::kSdc: return "sdc";
    case Outcome::kDetected: return "detected";
    case Outcome::kCrash: return "crash";
  }
  return "?";
}

double CampaignResult::sdc_rate() const {
  const int total = trials();
  if (total == 0) return 0.0;
  return static_cast<double>(count(Outcome::kSdc)) / total;
}

std::pair<double, double> CampaignResult::sdc_rate_ci() const {
  return wilson_interval(count(Outcome::kSdc), trials());
}

Outcome classify(const vm::VmResult& run,
                 const std::vector<std::uint64_t>& golden_output) {
  switch (run.status) {
    case vm::ExitStatus::kOk:
      return run.output == golden_output ? Outcome::kBenign : Outcome::kSdc;
    case vm::ExitStatus::kDetected:
      return Outcome::kDetected;
    default:
      return Outcome::kCrash;
  }
}

namespace {

/// Liveness masks per flat pc (masm::LiveSet: what is live *before* the
/// instruction) — the projection that keeps state digests blind to dead
/// register/stack noise.
std::vector<std::uint64_t> live_masks(const masm::AsmProgram& program,
                                      const vm::PredecodedProgram& decoded) {
  std::vector<std::uint64_t> masks(decoded.code().size(), ~std::uint64_t{0});
  for (std::size_t f = 0; f < program.functions.size(); ++f) {
    const masm::AsmFunction& fn = program.functions[f];
    const masm::Liveness liveness(fn);
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
      const std::int32_t base =
          decoded.block_pc(static_cast<int>(f), static_cast<int>(b));
      for (std::size_t i = 0; i < fn.blocks[b].insts.size(); ++i) {
        masks[static_cast<std::size_t>(base) + i] = liveness.live_after(
            static_cast<int>(b), static_cast<int>(i) - 1);
      }
    }
  }
  return masks;
}

const char* mode_prefix(PreparedCampaign::Mode mode) {
  switch (mode) {
    case PreparedCampaign::Mode::kCampaign: return "";
    case PreparedCampaign::Mode::kAudit: return "audit ";
    case PreparedCampaign::Mode::kCompose: return "compose ";
  }
  return "";
}

}  // namespace

PreparedCampaign::PreparedCampaign(const masm::AsmProgram& program,
                                   const vm::VmOptions& vm, int ckpt_stride)
    : PreparedCampaign(program, vm, ckpt_stride, Mode::kCampaign,
                       kRecordNothing) {}

PreparedCampaign::PreparedCampaign(const masm::AsmProgram& program,
                                   const vm::VmOptions& vm, int ckpt_stride,
                                   Mode mode, unsigned record)
    : decoded(program), store_data(vm.fault_store_data) {
  fast_forward = ckpt_stride > 0 && restorable(vm);
  vm::Engine golden_engine(decoded, vm);
  if ((record & kRecordSitePcs) != 0) {
    golden_engine.set_site_pc_sink(&site_pcs);
  }
  std::vector<std::uint64_t> masks;
  if ((record & kRecordStateDigests) != 0) {
    masks = live_masks(program, decoded);
    golden_engine.set_state_digest_sink(&site_digests, &masks);
  }
  golden = fast_forward
               ? golden_engine.run_capturing(
                     vm, static_cast<std::uint64_t>(ckpt_stride), ckpts)
               : golden_engine.run(vm, nullptr, 0);
  if (!golden.ok()) {
    throw std::runtime_error(std::string(mode_prefix(mode)) +
                             "golden run failed: " +
                             vm::exit_status_name(golden.status));
  }
  if (mode == Mode::kCampaign && golden.fi_sites == 0) {
    throw std::runtime_error("program has no fault-injection sites");
  }
}

vm::VmOptions PreparedCampaign::faulty(const vm::VmOptions& vm) const {
  vm::VmOptions options = vm;
  options.max_steps = faulty_step_budget(golden.steps);
  return options;
}

namespace {

struct TrialSlot {
  Outcome outcome = Outcome::kBenign;
  std::optional<std::uint64_t> latency;
  std::optional<vm::FaultLanding> sdc_landing;
};

void record_trial(TrialSlot& slot, const vm::VmResult& run,
                  const std::vector<std::uint64_t>& golden_output,
                  CampaignProgress* progress) {
  slot.outcome = classify(run, golden_output);
  if (progress != nullptr) {
    progress->counts[static_cast<std::size_t>(slot.outcome)].fetch_add(
        1, std::memory_order_relaxed);
  }
  if (slot.outcome == Outcome::kDetected && run.fault_injected) {
    // Latency anchors on the FIRST injected fault (see CampaignResult).
    slot.latency = run.steps - run.fault_step;
  }
  if (slot.outcome == Outcome::kSdc && run.fault_landing.has_value()) {
    slot.sdc_landing = run.fault_landing;
  }
}

/// Folds one answered trial into the result; `sdc_landing` keys the SDC
/// breakdown of an SDC trial.
void count_trial(CampaignResult& result, const TrialSlot& slot,
                 const std::optional<vm::FaultLanding>& sdc_landing) {
  ++result.counts[static_cast<int>(slot.outcome)];
  if (slot.latency.has_value()) {
    result.latency_sum += *slot.latency;
    if (*slot.latency > result.latency_max) result.latency_max = *slot.latency;
    ++result.latency_samples;
    ++result.latency_histogram[std::bit_width(*slot.latency)];
  }
  if (slot.outcome == Outcome::kSdc && sdc_landing.has_value()) {
    const std::string key =
        std::string(vm::fault_kind_name(sdc_landing->kind)) + "/" +
        masm::origin_name(sdc_landing->origin);
    ++result.sdc_breakdown[key];
  }
}

/// The campaign's fault set, drawn serially from the seed before any trial
/// runs: per trial, per fault, the site and then the bit. The fixed draw
/// is what keeps a campaign deterministic under parallel execution, and
/// it makes a pruned and an unpruned campaign over one seed judge the
/// same sampled set.
std::vector<vm::FaultSpec> draw_specs(const CampaignOptions& options,
                                      std::size_t count,
                                      std::uint64_t fi_sites) {
  std::vector<vm::FaultSpec> specs(count);
  Rng rng(options.seed);
  for (vm::FaultSpec& fault : specs) {
    fault.site = rng.next_below(fi_sites);
    fault.bit = static_cast<int>(rng.next_below(64));
    fault.burst = options.burst < 1 ? 1 : options.burst;
  }
  return specs;
}

}  // namespace

CampaignResult run_campaign(const masm::AsmProgram& program,
                            const CampaignOptions& options) {
  // Prune mode answers the drawn trials with one pilot run per (class,
  // effective bit, stratum): statically-dead flips are benign without
  // running, and the result keeps the unpruned frame — counts sum to
  // options.trials — so sdc_rate() estimates the unpruned campaign.
  const check::prune::PruneReport* prune = options.prune;
  if (prune != nullptr) {
    if (options.max_half_width > 0.0) {
      // Pilot extrapolation answers trials out of canonical order, so a
      // canonical-prefix stop rule has no meaning under prune.
      throw std::invalid_argument(
          "adaptive early stopping cannot be combined with prune mode");
    }
    if (options.faults_per_run > 1) {
      throw std::invalid_argument(
          "campaign prune mode requires faults_per_run == 1");
    }
    if (prune->store_data_sites != options.vm.fault_store_data) {
      throw std::invalid_argument(
          "prune report store_data_sites must match vm.fault_store_data");
    }
  }
  // The golden state either comes prepared (the service's cross-cell
  // sharing) or is built here; both ways it is shared read-only by every
  // worker's trial engine. Declared before the executor so restores never
  // outlive the pages they point at.
  const PreparedCampaign* prep =
      prune == nullptr ? options.prepared : nullptr;
  if (prep != nullptr && prep->store_data != options.vm.fault_store_data) {
    throw std::invalid_argument(
        "prepared campaign state disagrees on fault_store_data");
  }
  std::optional<PreparedCampaign> owned;
  if (prep == nullptr) {
    owned.emplace(program, options.vm, options.ckpt_stride,
                  PreparedCampaign::Mode::kCampaign,
                  prune != nullptr ? PreparedCampaign::kRecordSitePcs
                                   : PreparedCampaign::kRecordNothing);
    prep = &*owned;
  }
  const vm::VmResult& golden = prep->golden;

  CampaignResult result;
  result.total_sites = golden.fi_sites;
  result.golden_steps = golden.steps;

  const std::size_t trials =
      options.trials < 0 ? 0 : static_cast<std::size_t>(options.trials);
  const std::size_t per_run = static_cast<std::size_t>(
      options.faults_per_run < 1 ? 1 : options.faults_per_run);
  const std::vector<vm::FaultSpec> specs =
      draw_specs(options, trials * per_run, golden.fi_sites);

  // Pruned campaigns run only the pilots; the reduction maps every drawn
  // trial back to the pilot that answers it.
  detail::DynSiteMap dyn;
  detail::PilotPlan plan;
  if (prune != nullptr) {
    result.prune.enabled = true;
    result.prune.dead_fraction_static = prune->dead_fraction();
    dyn = detail::map_dynamic_sites(prep->decoded, prep->site_pcs, *prune,
                                    golden.fi_sites);
    plan = detail::plan_pilots(specs, dyn, *prune);
    result.prune.unmatched_trials = plan.unmatched;
  }
  const std::span<const vm::FaultSpec> runs =
      prune != nullptr ? std::span<const vm::FaultSpec>(plan.pilot_specs)
                       : std::span<const vm::FaultSpec>(specs);

  // Execute the runs across the pool; each run writes only its own slot,
  // and the reduction below walks the trials in order, so the result does
  // not depend on scheduling. Adaptive campaigns run one power-of-two
  // block at a time (a handful of pool joins in total); full-budget
  // campaigns run the whole range at once — a trial's execution does not
  // depend on which block ran it.
  std::vector<TrialSlot> slots(runs.size() / per_run);
  TrialExecutor executor(runs, per_run, *prep, prep->faulty(options.vm),
                         options.jobs);
  const TrialExecutor::OnResult record = [&](std::size_t slot,
                                             const vm::VmResult& run) {
    record_trial(slots[slot], run, golden.output, options.progress);
  };

  const StopRule rule{options.max_half_width};
  result.adaptive.enabled = rule.enabled();
  result.adaptive.target_half_width = rule.enabled() ? rule.max_half_width : 0.0;
  result.adaptive.planned_trials = static_cast<int>(trials);

  const auto wall_start = std::chrono::steady_clock::now();
  std::size_t executed = trials;
  if (!rule.enabled()) {
    executor.run(0, slots.size(), record);
  } else {
    // Block-boundary evaluation (fault/adaptive.h): run the canonical
    // order in power-of-two blocks and quit at the first boundary where
    // every outcome rate is pinned. The boundary sequence and the counts
    // at each boundary depend only on the pre-drawn specs, so the stop
    // decision is identical for every jobs/dispatch combination.
    std::array<int, 4> running{};
    std::size_t done = 0;
    executed = 0;
    for (const int boundary : stop_boundaries(static_cast<int>(trials), rule)) {
      const std::size_t upto = static_cast<std::size_t>(boundary);
      executor.run(done, upto, record);
      for (std::size_t trial = done; trial < upto; ++trial) {
        ++running[static_cast<int>(slots[trial].outcome)];
      }
      done = executed = upto;
      if (max_outcome_half_width(running, boundary) <= rule.max_half_width) {
        result.adaptive.stopped_early = upto < trials;
        break;
      }
    }
    for (int i = 0; i < 4; ++i) {
      result.adaptive.half_widths[static_cast<std::size_t>(i)] =
          wilson_half_width(running[static_cast<std::size_t>(i)],
                            static_cast<int>(executed));
    }
  }
  result.adaptive.executed_trials = static_cast<int>(executed);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  result.trials_per_worker = executor.trials_per_worker();
  result.ckpt = executor.telemetry();

  // Trial-order reduction over the executed canonical prefix (the whole
  // plan unless the stop rule fired). A pruned trial inherits only its
  // pilot's outcome and latency; its SDC-breakdown key comes from its OWN
  // static record.
  for (std::size_t trial = 0; trial < executed; ++trial) {
    if (prune == nullptr) {
      count_trial(result, slots[trial], slots[trial].sdc_landing);
      continue;
    }
    const std::int32_t p = plan.spec_pilot[trial];
    if (p < 0) {
      ++result.counts[static_cast<int>(Outcome::kBenign)];
      ++result.prune.dead_trials;
      continue;
    }
    if (plan.pilots[static_cast<std::size_t>(p)] != trial) {
      ++result.prune.replayed_trials;
    }
    const TrialSlot& slot = slots[static_cast<std::size_t>(p)];
    const std::int32_t s =
        dyn.static_site[static_cast<std::size_t>(specs[trial].site)];
    if (slot.outcome == Outcome::kSdc && s >= 0) {
      count_trial(result, slot, detail::static_landing(program, *prune, s));
    } else {
      count_trial(result, slot, slot.sdc_landing);
    }
  }
  if (prune != nullptr) {
    result.prune.pilot_runs = plan.pilots.size();
    result.prune.reduction =
        plan.pilots.empty() ? 0.0
                            : static_cast<double>(trials) /
                                  static_cast<double>(plan.pilots.size());
  }
  return result;
}

double sdc_coverage(double raw_sdc_rate, double protected_sdc_rate) {
  if (raw_sdc_rate <= 0.0) return 1.0;
  return (raw_sdc_rate - protected_sdc_rate) / raw_sdc_rate;
}

}  // namespace ferrum::fault
