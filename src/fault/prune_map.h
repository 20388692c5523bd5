// Shared prune-mode plumbing for audit_program and run_campaign: maps the
// dynamic fault-site ids of a golden run (PreparedCampaign::site_pcs)
// back to the static records of a check::prune::PruneReport, assigns each
// dynamic site its temporal stratum, plans the pilot runs and renders a
// static record's coordinates. Header-only and internal to ferrum_fault —
// it consumes the prune report through its inline lookups only, so no
// link dependency on ferrum_check is introduced (telemetry links fault
// back into check).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "check/prune.h"
#include "masm/masm.h"
#include "vm/engine.h"

namespace ferrum::fault::detail {

/// Pilot identity: (equivalence class, effective bit, temporal stratum).
/// Layout: class (32 bits) | effective bit (8) | stratum (24).
inline std::uint64_t pilot_key(std::uint32_t cls, int eff_bit,
                               std::uint32_t stratum) {
  return (static_cast<std::uint64_t>(cls) << 32) |
         (static_cast<std::uint64_t>(eff_bit & 0xff) << 24) |
         static_cast<std::uint64_t>(stratum & 0xffffff);
}

/// Mean occurrences of one equivalence class covered by a single pilot.
/// Linear strata bound each pilot's replication factor: whether a flip
/// propagates is often data-dependent per dynamic instance (a DP max
/// absorbs a corrupted operand on some iterations and not others), so
/// extrapolation error shrinks like 1/sqrt(pilots) only if no single
/// pilot answers for an unbounded span. Logarithmic strata were measured
/// 28pp off on needle's SDC rate; linear strata at this width land every
/// workload within tolerance while audits keep an order-of-magnitude
/// reduction.
constexpr std::uint64_t kPilotStride = 16;

/// splitmix64 finaliser — the deterministic hash behind the block jitter.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Per-class occurrence stream -> stratum ids, in blocks whose lengths
/// are jittered deterministically in [3/4, 5/4] of kPilotStride. Fixed
/// blocks alias with loop periods (a 16-iteration inner loop put every
/// pilot on the same loop phase — the DP boundary column — and biased
/// needle's extrapolated SDC rate by 7pp); varying the block length by a
/// hash of (class, block) decorrelates the pilot phase from any fixed
/// trip count. Capped to the key's 24-bit stratum field.
struct StratumCounter {
  std::uint64_t remaining = 0;
  std::uint32_t stratum = 0;
  bool started = false;

  std::uint32_t next(std::uint64_t cls_slot) {
    if (remaining == 0) {
      if (started && stratum < 0xffffff) ++stratum;
      started = true;
      const std::uint64_t lo = kPilotStride - kPilotStride / 4;
      const std::uint64_t span = kPilotStride / 2 + 1;
      remaining = lo + mix64((cls_slot << 32) | stratum) % span;
    }
    --remaining;
    return stratum;
  }
};

/// Dynamic site id -> (static prune record, temporal stratum).
struct DynSiteMap {
  /// Index into PruneReport::sites, -1 when the dynamic site has no
  /// static record (consumers must fall back to injecting exhaustively).
  std::vector<std::int32_t> static_site;
  std::vector<std::uint32_t> stratum;
};

/// Builds the map from the golden run's site-pc trace. Exact: site_pcs[id]
/// is the flat pc that registered dynamic site id, and end-of-function
/// sentinels never register sites, so every pc resolves to a real
/// instruction.
inline DynSiteMap map_dynamic_sites(const vm::PredecodedProgram& decoded,
                                    const std::vector<std::int32_t>& site_pcs,
                                    const check::prune::PruneReport& prune,
                                    std::uint64_t fi_sites) {
  const auto& code = decoded.code();
  std::vector<std::int32_t> pc_site(code.size(), -1);
  for (std::size_t pc = 0; pc < code.size(); ++pc) {
    const vm::DecodedInst& d = code[pc];
    if (d.inst == nullptr) continue;  // end-of-function sentinel
    pc_site[pc] = prune.site_index(d.fidx, d.bidx, d.iidx);
  }
  DynSiteMap map;
  const std::size_t nsites = static_cast<std::size_t>(fi_sites);
  map.static_site.assign(nsites, -1);
  map.stratum.assign(nsites, 0);
  // Occurrences are counted per equivalence CLASS, not per static site:
  // a stratum is then a contiguous block of the class's dynamic stream
  // (sites interleaved in execution order), so the pilot of each block
  // is a systematic sample of the whole class instead of always the
  // earliest member site — which measurably biased extrapolation.
  std::vector<StratumCounter> occurrences(prune.classes.size() + 1);
  for (std::size_t id = 0; id < nsites && id < site_pcs.size(); ++id) {
    const std::int32_t pc = site_pcs[id];
    const std::int32_t s =
        pc >= 0 && static_cast<std::size_t>(pc) < pc_site.size()
            ? pc_site[static_cast<std::size_t>(pc)]
            : -1;
    map.static_site[id] = s;
    if (s >= 0) {
      const std::uint32_t cls =
          prune.sites[static_cast<std::size_t>(s)].class_id;
      // Fully-dead sites (kDeadClass) never seed pilots; park them on
      // the spare trailing counter so indexing stays in bounds.
      const std::size_t slot = cls == check::prune::kDeadClass
                                   ? prune.classes.size()
                                   : static_cast<std::size_t>(cls);
      map.stratum[id] = occurrences[slot].next(slot);
    }
  }
  return map;
}

/// The pilot plan of a pruned campaign or audit over its fault specs, in
/// spec order: the first spec of each (class, effective bit, stratum) key
/// becomes the key's pilot, and every later spec of the key is answered
/// by it. Deterministic and jobs-invariant by construction.
struct PilotPlan {
  /// Per spec: the index into `pilots` of the run that answers it, or -1
  /// when the flip is provably dead (benign without running).
  std::vector<std::int32_t> spec_pilot;
  /// The spec index of each pilot, and its spec, in plan order.
  std::vector<std::size_t> pilots;
  std::vector<vm::FaultSpec> pilot_specs;
  /// Specs on a dynamic site with no static record: each is its own
  /// pilot (the sound fallback).
  std::uint64_t unmatched = 0;
};

inline PilotPlan plan_pilots(std::span<const vm::FaultSpec> specs,
                             const DynSiteMap& dyn,
                             const check::prune::PruneReport& prune) {
  PilotPlan plan;
  plan.spec_pilot.assign(specs.size(), -1);
  std::unordered_map<std::uint64_t, std::uint32_t> pilot_by_key;
  const auto add_pilot = [&](std::size_t i) {
    plan.pilots.push_back(i);
    plan.pilot_specs.push_back(specs[i]);
  };
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const vm::FaultSpec& spec = specs[i];
    const std::size_t id = static_cast<std::size_t>(spec.site);
    const std::int32_t s = dyn.static_site[id];
    if (s < 0) {
      plan.spec_pilot[i] = static_cast<std::int32_t>(plan.pilots.size());
      add_pilot(i);
      ++plan.unmatched;
      continue;
    }
    const check::prune::PruneSite& site =
        prune.sites[static_cast<std::size_t>(s)];
    if (site.flip_dead(spec.bit, spec.burst)) continue;
    const std::uint64_t key =
        pilot_key(site.class_id, spec.bit % site.bit_space, dyn.stratum[id]);
    auto [it, inserted] = pilot_by_key.emplace(
        key, static_cast<std::uint32_t>(plan.pilots.size()));
    if (inserted) add_pilot(i);
    plan.spec_pilot[i] = static_cast<std::int32_t>(it->second);
  }
  return plan;
}

/// The coordinates of static prune record `s`, in the form the engine
/// records for a fault that lands there. The pruned modes key SDC
/// breakdowns, escapes and site tallies on a trial's OWN static record,
/// since only the outcome is inherited from its pilot.
inline vm::FaultLanding static_landing(const masm::AsmProgram& program,
                                       const check::prune::PruneReport& prune,
                                       std::int32_t s) {
  const check::prune::PruneSite& site =
      prune.sites[static_cast<std::size_t>(s)];
  const masm::AsmFunction& fn =
      program.functions[static_cast<std::size_t>(site.function)];
  const masm::AsmInst& inst = fn.blocks[static_cast<std::size_t>(site.block)]
                                  .insts[static_cast<std::size_t>(site.inst)];
  vm::FaultLanding landing;
  landing.kind = site.kind;
  landing.origin = inst.origin;
  landing.op = inst.op;
  landing.function = fn.name;
  landing.block = site.block;
  landing.inst = site.inst;
  return landing;
}

}  // namespace ferrum::fault::detail
