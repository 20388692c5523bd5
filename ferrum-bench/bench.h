// ferrum-bench: the campaign-cell benchmark. A *cell* is MiniC source x
// technique x fault model -> protected build -> answer (a campaign result,
// a static report, or a service reply). This header declares what the
// workloads, the ledger, the correctness gate and the gate's self-test
// share.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/campaign.h"
#include "ir/interp.h"
#include "pipeline/pipeline.h"
#include "telemetry/json.h"

namespace fbench {

using ferrum::pipeline::Technique;

inline constexpr std::array<Technique, 4> kTechniques = {
    Technique::kNone, Technique::kIrEddi, Technique::kHybrid,
    Technique::kFerrum};

double now_seconds();  // steady clock

// ---------------------------------------------------------------- inputs

/// Deterministic 64-bit mix of a seed and a few coordinates.
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                  std::uint64_t c = 0);

/// A (Table II kernel, technique) pair with its reference output:
/// ir::interpret on the module of a build of that source — an interpreter
/// independent of the VM under test. The kernels' inputs are fixed; the
/// benchmark seed draws the fault samples (and so the service's cache
/// keys), which leaves the work per cell comparable across seeds.
struct Program {
  std::string kernel;
  Technique technique = Technique::kNone;
  const std::string* source = nullptr;
  std::unique_ptr<ferrum::pipeline::Build> build;  // the set-up build
  ferrum::ir::RunResult reference;
};

// ---------------------------------------------------------------- gate

/// Each returns "" when the check passes, else what failed.
std::string check_golden(const std::vector<std::uint64_t>& vm_output,
                         const ferrum::ir::RunResult& reference);
/// Outcome counts sum to the trials executed (the planned budget, or the
/// adaptive prefix), and hybrid/ferrum report zero SDC.
std::string check_campaign(const ferrum::fault::CampaignResult& result,
                           Technique technique, int planned_trials);
/// The same rule over a service result frame's bytes.
std::string check_result_bytes(const std::string& bytes, Technique technique,
                               int planned_trials);
/// A warm answer equals the cold bytes, came from the store and ran no
/// trials.
std::string check_warm(const std::string& cold_bytes,
                       const std::string& warm_bytes, bool cached,
                       std::uint64_t trials_executed);

/// ir-eddi and hybrid builds are not a pure function of their source: the
/// backend assigns escape slots in the iteration order of a set of
/// instruction pointers, so two builds of one kernel print different frame
/// offsets and get different result-store keys. A restarted daemon then
/// misses the disk tier for such a cell and runs its trials again. Every
/// run counts these breaks under Gate::known_defects; the same break in
/// any other technique is a gate failure.
inline bool known_unstable(Technique technique) {
  return technique == Technique::kIrEddi || technique == Technique::kHybrid;
}

/// Attempted / failed operation tally with the first few failure texts,
/// and a count per known defect of the library that an operation ran into
/// (see known_unstable); those are printed in every report, not failed.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> first_failures;
  std::map<std::string, std::uint64_t> known_defects;

  /// Counts one operation; `errors` joined by "; " ("" = it passed).
  void record(const std::string& what, const std::string& errors);
};

// ---------------------------------------------------------------- ledger

/// Sample series per metric name; the reported value is the median.
class Ledger {
 public:
  void add(const std::string& name, double value) {
    series_[name].push_back(value);
  }
  const std::vector<double>* find(const std::string& name) const;
  const std::map<std::string, std::vector<double>>& series() const {
    return series_;
  }

 private:
  std::map<std::string, std::vector<double>> series_;
};

/// Linear-interpolated percentile (q in [0, 1]) of `values`; 0 if empty.
double percentile(std::vector<double> values, double q);

double peak_rss_mb();

/// nproc, CPU model, build type and compiler.
ferrum::telemetry::Json fingerprint();

// ---------------------------------------------------------------- workloads


/// The host's speed, read off a fixed kernel compiled in this package
/// (never in src/, so no change to the library can move it). On a shared
/// host the speed swings by up to 2x for seconds to minutes at a time
/// with co-tenant load; a sample scaled by
/// kReferenceMs / (kernel time around it) reads what it would at the
/// speed where the kernel takes kReferenceMs.
class SpeedProbe {
 public:
  static constexpr double kReferenceMs = 5.0;
  /// Times the kernel; returns kReferenceMs / the mean of this and the
  /// previous timing: the factor for work done between the two.
  double mark();
  /// Every timing taken so far, in ms.
  const std::vector<double>& timings() const { return timings_; }

 private:
  std::vector<double> timings_;
};

/// Answered cells by cell type: one kernel x technique (x phase, for the
/// service). Every pass answers every type once, with fresh fault draws.
/// The end-to-end metrics use each type's mean speed-scaled latency over
/// the passes: the mean evens out how much work a draw costs (a single
/// ferrum campaign's executed steps vary by a quarter between seeds), and
/// the speed scaling evens out the host.
struct Totals {
  struct Type {
    std::vector<double> ms;      // speed-scaled latencies
    bool in_percentiles = true;  // counted in cell_p50/p90
  };
  std::map<std::string, Type> types;
  std::uint64_t cells = 0;
  double busy_s = 0.0;  // summed raw cell latency

  /// Records a raw latency; it joins `types` at the next settle().
  void add(const std::string& type, double ms, bool in_percentiles = true);
  /// Scales the samples added since the last settle by `factor`.
  void settle(double factor);
  void merge(const Totals& other);

 private:
  struct Pending {
    std::string type;
    double ms;
    bool in_percentiles;
  };
  std::vector<Pending> pending_;
};

struct Context {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::vector<Program> programs;  // kernel-major, kTechniques order
  SpeedProbe* speed = nullptr;
  /// Called between passes with the share of `seconds` spent so far;
  /// main() uses it to repeat the set-up at spread-out times, so the
  /// set-up samples do not all fall in one burst of machine noise.
  std::function<void(double spent)> between_passes;
};

/// Each runs whole passes until `ctx.seconds` have elapsed (at least one).
/// With ctx.trace every pass runs twice, untraced then traced, and the
/// per-layer metrics come from the traced copy.
void campaign_full(const Context& ctx, Totals& totals, Ledger& layers,
                   Gate& gate);
void cell_adaptive(const Context& ctx, Totals& totals, Ledger& layers,
                   Gate& gate);
void lint_static(const Context& ctx, Totals& totals, Ledger& layers,
                 Gate& gate);
void service_mix(const Context& ctx, Totals& totals, Ledger& layers,
                 Gate& gate);

}  // namespace fbench
