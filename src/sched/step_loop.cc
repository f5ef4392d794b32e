#include "sched/step_loop.h"

#include <limits>
#include <utility>

#include "util/check.h"

namespace punica {

StepLoop::StepLoop(std::vector<ExecutionBackend*> backends, Hooks hooks)
    : scheduler_(std::move(backends)), hooks_(std::move(hooks)) {
  busy_.assign(static_cast<std::size_t>(scheduler_.num_gpus()), false);
  pending_wake_.assign(busy_.size(), std::numeric_limits<double>::infinity());
}

std::optional<StepResult> StepLoop::MigrateAndStep(
    int gpu, double now, std::vector<int>* touched) {
  *touched = scheduler_.MigrateForKvPressure(gpu, now, &migrations_);
  ExecutionBackend& backend = *scheduler_.backend(gpu);
  if (!backend.HasRunnableWork(now)) return std::nullopt;
  StepResult result = backend.Step(now);
  PUNICA_CHECK(result.batch_size > 0);
  return result;
}

void StepLoop::WakeGpus(const std::vector<int>& gpus) {
  for (int g : gpus) MaybeStartStep(g);
}

void StepLoop::MaybeStartStep(int gpu) {
  auto gi = static_cast<std::size_t>(gpu);
  if (busy_[gi]) return;
  double now = events_.now();
  std::vector<int> touched;
  if (auto result = MigrateAndStep(gpu, now, &touched)) {
    busy_[gi] = true;
    if (hooks_.on_start) hooks_.on_start(gpu, *result, now);
    events_.ScheduleAfter(result->latency, [this, gpu, r = *result] {
      OnStepDone(gpu, r);
    });
  } else if (auto ready = scheduler_.backend(gpu)->NextReadyTime(now);
             ready.has_value()) {
    // Adapters still loading: wake when the earliest copy completes.
    if (*ready < pending_wake_[gi] - 1e-12) {
      pending_wake_[gi] = *ready;
      events_.Schedule(*ready, [this, gpu, gi] {
        pending_wake_[gi] = std::numeric_limits<double>::infinity();
        MaybeStartStep(gpu);
      });
    }
  } else if (hooks_.on_idle) {
    hooks_.on_idle(gpu, now);
  }
  // Migration destinations may now have new work.
  WakeGpus(touched);
}

void StepLoop::OnStepDone(int gpu, const StepResult& result) {
  busy_[static_cast<std::size_t>(gpu)] = false;
  double now = events_.now();
  if (hooks_.on_done) hooks_.on_done(result, now);
  WakeGpus(scheduler_.PumpQueue(now));
  // Freed capacity first (continuous batching refills the working set),
  // then restart this GPU.
  if (hooks_.refill) WakeGpus(hooks_.refill(now));
  MaybeStartStep(gpu);
}

void StepLoop::Consolidate(int max_moves) {
  for (int moves = 0; moves < max_moves; ++moves) {
    int receiver = scheduler_.ConsolidateOnce(events_.now(), &migrations_);
    if (receiver < 0) return;
    MaybeStartStep(receiver);
  }
}

bool StepLoop::StepEachOnce(double now) {
  bool stepped = false;
  std::vector<int> touched;  // unused: every backend is polled anyway
  for (int g = 0; g < scheduler_.num_gpus(); ++g) {
    if (auto result = MigrateAndStep(g, now, &touched)) {
      if (hooks_.on_done) hooks_.on_done(*result, now);
      stepped = true;
    }
  }
  if (stepped) scheduler_.PumpQueue(now);
  return stepped;
}

bool StepLoop::Drained() const {
  for (int g = 0; g < scheduler_.num_gpus(); ++g) {
    if (scheduler_.backend(g)->HasAnyWork()) return false;
  }
  return scheduler_.queue_size() == 0;
}

bool StepLoop::Serves(const SubmitSpec& spec) const {
  for (int g = 0; g < scheduler_.num_gpus(); ++g) {
    if (!scheduler_.backend(g)->Serves(spec)) return false;
  }
  return spec.Servable();
}

}  // namespace punica
