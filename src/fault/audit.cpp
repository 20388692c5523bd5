#include "fault/audit.h"

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <tuple>

// Types and inline lookups only — the prune analysis itself runs in
// ferrum_check and reaches this layer as a const pointer, so ferrum_fault
// takes no link dependency on it (telemetry links fault back into check).
#include "check/prune.h"
#include "fault/campaign.h"
#include "fault/prune_map.h"
#include "fault/trial_executor.h"
#include "vm/engine.h"

namespace ferrum::fault {

namespace {

/// Deterministically-ordered accumulator for AuditOptions::site_outcomes:
/// static coordinates -> per-outcome probe counts.
class SiteOutcomeTally {
 public:
  void add(const vm::FaultLanding& where, Outcome outcome) {
    SiteOutcome& entry = map_[std::make_tuple(where.function, where.block,
                                              where.inst,
                                              static_cast<int>(where.kind))];
    if (entry.function.empty()) {
      entry.function = where.function;
      entry.block = where.block;
      entry.inst = where.inst;
      entry.kind = where.kind;
    }
    ++entry.count[static_cast<std::size_t>(outcome)];
  }

  std::vector<SiteOutcome> take() {
    std::vector<SiteOutcome> out;
    out.reserve(map_.size());
    for (auto& [key, entry] : map_) out.push_back(std::move(entry));
    map_.clear();
    return out;
  }

 private:
  std::map<std::tuple<std::string, int, int, int>, SiteOutcome> map_;
};

/// Per-run results of an audit sweep. The executor calls record() once
/// per run on the worker that ran it, and each call writes only that
/// run's entries; the reduction reads them in probe order.
struct RunResults {
  std::vector<Outcome> outcome;
  /// Landing coordinates where the reduction reads them: for SDC runs
  /// (the escape list) and, when `keep_all_landings`, for every run (the
  /// site_outcomes tally). Null otherwise, or when the fault never
  /// landed — an audit can hold millions of probes.
  std::vector<std::unique_ptr<vm::FaultLanding>> landing;
  bool keep_all_landings;

  RunResults(std::size_t runs, bool keep_all_landings)
      : outcome(runs, Outcome::kBenign),
        landing(runs),
        keep_all_landings(keep_all_landings) {}

  void record(std::size_t r, const vm::VmResult& run,
              const std::vector<std::uint64_t>& golden_output) {
    outcome[r] = classify(run, golden_output);
    if (run.fault_landing.has_value() &&
        (keep_all_landings || outcome[r] == Outcome::kSdc)) {
      landing[r] = std::make_unique<vm::FaultLanding>(*run.fault_landing);
    }
  }
};

/// Copies a landing's static coordinates into an escape.
void set_escape_landing(AuditEscape& escape, const vm::FaultLanding& landing) {
  escape.kind = landing.kind;
  escape.origin = landing.origin;
  escape.op = landing.op;
  escape.function = landing.function;
  escape.block = landing.block;
  escape.inst = landing.inst;
}

}  // namespace

AuditReport audit_program(const masm::AsmProgram& program,
                          const AuditOptions& options) {
  // Prune mode: one pilot injection per (class, effective bit, stratum);
  // every other live probe inherits its pilot's outcome, dead probes are
  // benign by the liveness proof. The report keeps the exhaustive frame
  // (injections/detected/... count every probe) so it is directly
  // comparable with the exhaustive audit.
  const check::prune::PruneReport* prune = options.prune;
  if (prune != nullptr) {
    if (prune->store_data_sites != options.vm.fault_store_data) {
      throw std::invalid_argument(
          "prune report store_data_sites must match vm.fault_store_data");
    }
    if (options.site_stride > 1) {
      throw std::invalid_argument(
          "site_stride is a subsampling knob for exhaustive sweeps; the "
          "pruned audit extrapolates from pilots and cannot stride");
    }
  }
  const PreparedCampaign prep(program, options.vm, options.ckpt_stride,
                              PreparedCampaign::Mode::kAudit,
                              prune != nullptr
                                  ? PreparedCampaign::kRecordSitePcs
                                  : PreparedCampaign::kRecordNothing);
  const vm::VmResult& golden = prep.golden;
  AuditReport report;
  report.sites = golden.fi_sites;

  // Strided site selection: slot i probes site i * stride. Stride 1 is
  // the exhaustive audit; larger strides keep the same per-probe
  // semantics over a deterministic subset of the site stream.
  const std::uint64_t stride =
      options.site_stride > 1 ? static_cast<std::uint64_t>(options.site_stride)
                              : 1;
  const std::size_t slots = static_cast<std::size_t>(
      golden.fi_sites == 0 ? 0 : (golden.fi_sites + stride - 1) / stride);

  // Every (site, bit) probe is independent: materialise them in (site,
  // probe-bit) order, run them (or their pilots) across the pool into
  // per-run slots, then reduce in probe order so the escape list comes
  // out exactly as a serial sweep would produce it.
  const std::size_t nbits = options.probe_bits.size();
  std::vector<vm::FaultSpec> probes;
  probes.reserve(slots * nbits);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    for (const int bit : options.probe_bits) {
      probes.push_back({slot * stride, bit});
    }
  }
  detail::DynSiteMap dyn;
  detail::PilotPlan plan;
  if (prune != nullptr) {
    report.prune.enabled = true;
    report.prune.static_sites = prune->sites.size();
    report.prune.classes = prune->classes.size();
    report.prune.dead_fraction_static = prune->dead_fraction();
    dyn = detail::map_dynamic_sites(prep.decoded, prep.site_pcs, *prune,
                                    golden.fi_sites);
    plan = detail::plan_pilots(probes, dyn, *prune);
    report.prune.unmatched_probes = plan.unmatched;
  }
  const std::vector<vm::FaultSpec>& runs =
      prune != nullptr ? plan.pilot_specs : probes;
  RunResults results(runs.size(), options.site_outcomes);
  TrialExecutor executor(runs, 1, prep, prep.faulty(options.vm), options.jobs);
  const auto wall_start = std::chrono::steady_clock::now();
  executor.run(0, runs.size(), [&](std::size_t r, const vm::VmResult& run) {
    results.record(r, run, golden.output);
  });
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  report.sites_per_worker = executor.trials_per_worker();
  report.ckpt = executor.telemetry();

  // Reduce in probe order. A pruned probe inherits only its pilot's
  // outcome; its escape and tally coordinates are its OWN static record.
  SiteOutcomeTally tally;
  for (std::size_t slot = 0; slot < slots; ++slot) {
    // Pruned audits never stride, so the slot is the dynamic site id. Its
    // static record is rendered on first use.
    const std::int32_t s = prune != nullptr ? dyn.static_site[slot] : -1;
    std::optional<vm::FaultLanding> own;
    const auto own_landing = [&]() -> const vm::FaultLanding* {
      if (!own.has_value()) own = detail::static_landing(program, *prune, s);
      return &*own;
    };
    for (std::size_t p = slot * nbits; p < (slot + 1) * nbits; ++p) {
      ++report.injections;
      std::size_t r = p;  // the run answering this probe
      if (prune != nullptr) {
        const std::int32_t pilot = plan.spec_pilot[p];
        if (pilot < 0) {  // only a probe with a static record is dead
          ++report.benign;
          ++report.prune.dead_probes;
          if (options.site_outcomes) {
            tally.add(*own_landing(), Outcome::kBenign);
          }
          continue;
        }
        r = static_cast<std::size_t>(pilot);
        if (plan.pilots[r] != p) ++report.prune.extrapolated_probes;
      }
      const Outcome outcome = results.outcome[r];
      const auto where = [&]() -> const vm::FaultLanding* {
        return s >= 0 ? own_landing() : results.landing[r].get();
      };
      switch (outcome) {
        case Outcome::kDetected:
          ++report.detected;
          break;
        case Outcome::kCrash:
          ++report.crashed;
          break;
        case Outcome::kBenign:
          ++report.benign;
          break;
        case Outcome::kSdc: {
          AuditEscape escape;
          escape.site = probes[p].site;
          escape.bit = probes[p].bit;
          if (const vm::FaultLanding* landing = where()) {
            set_escape_landing(escape, *landing);
          }
          report.escapes.push_back(std::move(escape));
          break;
        }
      }
      if (options.site_outcomes) {
        if (const vm::FaultLanding* landing = where()) {
          tally.add(*landing, outcome);
        }
      }
    }
  }
  if (prune != nullptr) {
    report.prune.pilot_keys = plan.pilots.size();
    report.prune.pilot_injections = plan.pilots.size();
    report.prune.reduction =
        plan.pilots.empty() ? 1.0
                            : static_cast<double>(report.injections) /
                                  static_cast<double>(plan.pilots.size());
    report.prune.pilots.reserve(plan.pilots.size());
    for (std::size_t r = 0; r < plan.pilots.size(); ++r) {
      report.prune.pilots.push_back(
          {plan.pilot_specs[r].site, plan.pilot_specs[r].bit,
           results.outcome[r]});
    }
  }
  if (options.site_outcomes) report.site_outcomes = tally.take();
  return report;
}

}  // namespace ferrum::fault
