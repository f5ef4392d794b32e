// The event-loop core under ClusterDriver and ServingLoop. It owns the
// Scheduler, the EventQueue and the migration count, and runs the one
// migrate-then-step sequence (§5.3) on two clocks:
//   * virtual — MaybeStartStep steps a free GPU and schedules its
//     completion, or wakes it when its pending adapter loads finish. A
//     completion frees the GPU, runs `on_done`, wakes the GPUs PumpQueue
//     and then `refill` filled, and restarts the GPU;
//   * polled — StepEachOnce steps every backend once, synchronously.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "runtime/backend.h"
#include "sched/scheduler.h"
#include "sim/event_queue.h"

namespace punica {

class StepLoop {
 public:
  /// Owner callbacks; any may be empty.
  struct Hooks {
    /// A virtual-clock step began on `gpu`.
    std::function<void(int gpu, const StepResult&, double now)> on_start;
    /// `gpu` had neither runnable work nor an adapter load to wait for.
    std::function<void(int gpu, double now)> on_idle;
    /// A step's results, at its completion (virtual) or right away (polled).
    std::function<void(const StepResult&, double now)> on_done;
    /// Admits more work after a virtual-clock completion; returns the GPUs
    /// it filled.
    std::function<std::vector<int>(double now)> refill;
  };

  /// Drives caller-owned backends (which must outlive the loop).
  StepLoop(std::vector<ExecutionBackend*> backends, Hooks hooks);
  StepLoop(const StepLoop&) = delete;
  StepLoop& operator=(const StepLoop&) = delete;

  /// Virtual clock: migrate-then-step `gpu` now unless it is mid-step.
  void MaybeStartStep(int gpu);
  void WakeGpus(const std::vector<int>& gpus);
  /// Consolidation (§5.1) now: up to `max_moves` moves while a beneficial
  /// one exists, restarting each receiver.
  void Consolidate(int max_moves);

  /// Polled clock: one migrate-then-step per backend at `now`, then one
  /// PumpQueue if any backend stepped. Returns true if any stepped.
  bool StepEachOnce(double now);

  /// True when no backend holds work and the scheduler queue is empty.
  bool Drained() const;

  /// True when every backend serves `spec` (ExecutionBackend::Serves):
  /// the scheduler may route it to any of them.
  bool Serves(const SubmitSpec& spec) const;

  Scheduler& scheduler() { return scheduler_; }
  const Scheduler& scheduler() const { return scheduler_; }
  EventQueue& events() { return events_; }
  std::int64_t migrations() const { return migrations_; }

 private:
  /// Moves `gpu`'s KvCache-pressure victims (their destinations go to
  /// `touched`), then steps `gpu` if it has runnable work.
  std::optional<StepResult> MigrateAndStep(int gpu, double now,
                                           std::vector<int>* touched);
  void OnStepDone(int gpu, const StepResult& result);

  Scheduler scheduler_;
  EventQueue events_;
  Hooks hooks_;
  std::vector<bool> busy_;
  std::vector<double> pending_wake_;  ///< earliest scheduled wake per GPU
  std::int64_t migrations_ = 0;
};

}  // namespace punica
