#include "fault/trial_executor.h"

namespace ferrum::fault {

TrialExecutor::TrialExecutor(std::span<const vm::FaultSpec> specs,
                             std::size_t per_run,
                             const PreparedCampaign& prepared,
                             const vm::VmOptions& faulty, int jobs)
    : specs_(specs),
      per_run_(per_run),
      decoded_(prepared.decoded),
      ckpts_(prepared.fast_forward && PreparedCampaign::restorable(faulty)
                 ? &prepared.ckpts
                 : nullptr),
      faulty_(faulty),
      pool_(jobs),
      engines_(static_cast<std::size_t>(pool_.workers())),
      trials_per_worker_(static_cast<std::size_t>(pool_.workers()), 0) {}

void TrialExecutor::run(std::size_t begin, std::size_t end,
                        const OnResult& on_result) {
  if (end <= begin) return;
  pool_.parallel_for_indexed(
      end - begin, [&](int worker, std::size_t lo, std::size_t hi) {
        const std::size_t w = static_cast<std::size_t>(worker);
        trials_per_worker_[w] += hi - lo;
        auto& engine = engines_[w];
        if (engine == nullptr) {
          engine = std::make_unique<vm::Engine>(decoded_, faulty_);
        }
        for (std::size_t trial = begin + lo; trial < begin + hi; ++trial) {
          const vm::FaultSpec* faults = specs_.data() + trial * per_run_;
          on_result(trial, ckpts_ != nullptr
                               ? engine->run_from(*ckpts_, faulty_, faults,
                                                  per_run_)
                               : engine->run(faulty_, faults, per_run_));
        }
      });
}

vm::CheckpointTelemetry TrialExecutor::telemetry() const {
  vm::CheckpointTelemetry telemetry;
  if (ckpts_ != nullptr) {
    telemetry.stride = static_cast<int>(ckpts_->stride());
    telemetry.checkpoints = ckpts_->size();
    telemetry.snapshot_bytes = ckpts_->snapshot_bytes();
  }
  for (const auto& engine : engines_) {
    if (engine != nullptr) telemetry.ff.merge(engine->stats());
  }
  return telemetry;
}

}  // namespace ferrum::fault
