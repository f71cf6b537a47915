#include "core/controller.hpp"

#include <algorithm>
#include <stdexcept>

namespace cloudcr::core {

CheckpointController::CheckpointController(
    const CheckpointPolicy& policy, double total_work_s, double mem_mb,
    FailureStats stats, AdaptationMode mode, storage::DeviceKind shared_kind,
    std::optional<storage::DeviceKind> forced_device)
    : policy_(policy),
      total_work_s_(total_work_s),
      stats_(stats),
      planned_stats_(stats),
      mode_(mode),
      decision_(select_storage(total_work_s, mem_mb, stats.mnof, shared_kind)) {
  if (total_work_s <= 0.0) {
    throw std::invalid_argument("CheckpointController: total work must be > 0");
  }
  if (forced_device) decision_.device = *forced_device;
  replan(0.0);
  replans_ = 0;  // the initial plan does not count as a re-plan
}

void CheckpointController::replan(double progress_s) {
  const bool local =
      decision_.device == storage::DeviceKind::kLocalRamdisk;
  PolicyContext ctx;
  ctx.total_work_s = total_work_s_;
  ctx.remaining_work_s = std::max(0.0, total_work_s_ - progress_s);
  ctx.checkpoint_cost_s = local ? decision_.local_cost_s
                                : decision_.shared_cost_s;
  ctx.restart_cost_s = local ? decision_.local_restart_s
                             : decision_.shared_restart_s;
  ctx.stats = stats_;
  interval_ = ctx.remaining_work_s > 0.0 ? policy_.next_interval(ctx)
                                         : total_work_s_;
  anchor_s_ = progress_s;
  planned_stats_ = stats_;
  ++replans_;
}

void CheckpointController::on_rollback(double progress_s) {
  // Re-anchor at the restored progress; the interval in force is unchanged
  // (failures do not alter MNOF by themselves).
  anchor_s_ = progress_s;
}

void CheckpointController::update_stats(FailureStats stats,
                                        double progress_s) {
  stats_ = stats;
  // Static mode never consumes the update. Adaptive mode re-plans right
  // away (Algorithm 1 lines 9-12 run on every polling tick).
  if (mode_ == AdaptationMode::kAdaptive &&
      !stats_equal(stats_, planned_stats_)) {
    replan(progress_s);
  }
}

}  // namespace cloudcr::core
