// The one trial loop behind every fault-injection mode: campaigns
// (full, adaptive and pruned), audits (exhaustive and pruned) and
// compose all hand it their PreparedCampaign and a span of pre-drawn
// fault specs, and receive one VmResult per trial.
//
// Determinism: the executor decides only *when* and on *which worker* a
// trial runs, never what it computes. Each trial index maps to a fixed
// fault set drawn before anything ran, the VM is deterministic, and
// callers write each result into the trial's own slot — so everything a
// caller reduces in trial order is identical for every jobs value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "fault/campaign.h"
#include "support/parallel.h"
#include "vm/engine.h"
#include "vm/vm.h"

namespace ferrum::fault {

class TrialExecutor {
 public:
  /// Called exactly once per trial, on the worker thread that ran it.
  using OnResult = std::function<void(std::size_t, const vm::VmResult&)>;

  /// Trial i injects specs[i * per_run, (i + 1) * per_run) under the
  /// mode's `faulty` options (copied). Trials fast-forward from their
  /// nearest checkpoint when `prepared` captured checkpoints and `faulty`
  /// allows restoring them, and run cold otherwise. `prepared` and the
  /// span must outlive the executor.
  TrialExecutor(std::span<const vm::FaultSpec> specs, std::size_t per_run,
                const PreparedCampaign& prepared, const vm::VmOptions& faulty,
                int jobs);

  TrialExecutor(const TrialExecutor&) = delete;
  TrialExecutor& operator=(const TrialExecutor&) = delete;

  /// Runs trials [begin, end) across the pool and blocks until all
  /// finished. May be called repeatedly (adaptive blocks, compose
  /// rounds); the pool and the per-worker engines persist across calls.
  void run(std::size_t begin, std::size_t end, const OnResult& on_result);

  /// Trials run by each pool worker (index 0 = the calling thread).
  /// Scheduling-dependent: observability only, only the sum is stable.
  const std::vector<std::uint64_t>& trials_per_worker() const {
    return trials_per_worker_;
  }

  /// Checkpoint telemetry of every trial run so far: the checkpoint set's
  /// effective stride and size (zero when trials ran cold) plus the fast-
  /// forward stats summed over the worker engines — unordered sums, so
  /// deterministic for a fixed stride.
  vm::CheckpointTelemetry telemetry() const;

 private:
  std::span<const vm::FaultSpec> specs_;
  std::size_t per_run_;
  const vm::PredecodedProgram& decoded_;
  const vm::CheckpointSet* ckpts_;
  vm::VmOptions faulty_;
  ThreadPool pool_;
  /// One reusable Engine per worker, created lazily on the thread that
  /// uses it: the arena is allocated once and reset by dirty-page diff.
  std::vector<std::unique_ptr<vm::Engine>> engines_;
  std::vector<std::uint64_t> trials_per_worker_;
};

}  // namespace ferrum::fault
