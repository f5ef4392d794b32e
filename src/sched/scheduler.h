// The Punica cluster scheduler (paper §5.1, §5.3).
//
// Routing rule for a new request: among backends satisfying the constraints
// (below max batch size, enough KvCache memory), prefer the one whose
// shared-prefix KV cache covers the most of the request's prefill
// (prefix affinity — tenant-mates co-locate, so system prompts are paid
// once per GPU); then the *largest* working set; ties go to the highest
// GPU UUID. This concentrates load — busy GPUs stay busy, lightly loaded
// GPUs drain, idle GPUs stay idle — enabling cluster scale-down. When no
// backend qualifies, requests queue and are admitted FCFS as capacity
// frees.
//
// Migration is built from cancellation: evict (newest first, preserving
// FCFS) + re-add elsewhere with prompt+generated recomputation.
//
// The scheduler is tier-agnostic: it drives ExecutionBackend, so the same
// routing/migration/consolidation logic serves the simulated tier
// (GpuRunner over the cost model) and the numeric tier (EngineBackend over
// a real model).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "runtime/backend.h"
#include "runtime/request.h"

namespace punica {

class Scheduler {
 public:
  explicit Scheduler(std::vector<ExecutionBackend*> backends);

  /// Routes a request. Returns the backend index it was assigned to, or -1
  /// when all backends are full and the request was queued. `exclude_gpu`
  /// (optional, -1 = none) prevents bouncing a migrating request back to
  /// its source.
  int Submit(ServingRequest* req, double now, int exclude_gpu = -1);

  /// True when Submit would queue `req` behind an already-queued request
  /// (FCFS: a brand-new request never jumps the queue, whatever capacity
  /// is free).
  bool QueuedAhead(const ServingRequest& req) const;

  /// Admits queued requests FCFS while any backend can take them. Returns
  /// the set of backend indices that received work.
  std::vector<int> PumpQueue(double now);

  /// Handles KvCache pressure on `gpu`: evicts that backend's chosen
  /// victims and re-routes each one (same path as a new request). Returns
  /// backends that received migrated requests. Increments `migration_count`
  /// per move.
  std::vector<int> MigrateForKvPressure(int gpu, double now,
                                        std::int64_t* migration_count);

  /// One round of periodic consolidation: move the newest request of the
  /// most lightly loaded (non-empty, non-largest) backend to the most
  /// loaded backend that can admit it. Returns the receiving index, or -1
  /// if no beneficial move exists.
  int ConsolidateOnce(double now, std::int64_t* migration_count);

  /// Cancels a request wherever it lives (queue or backend). Returns true
  /// if it was found.
  bool Cancel(std::int64_t request_id);

  std::size_t queue_size() const { return queue_.size(); }
  const std::deque<ServingRequest*>& queue() const { return queue_; }
  ExecutionBackend* backend(int gpu) const {
    return backends_.at(static_cast<std::size_t>(gpu));
  }
  int num_gpus() const { return static_cast<int>(backends_.size()); }

  /// Backend availability (cloud allocate/deallocate, §5.1). Disabled
  /// backends receive no new work; disabling requires an empty working set.
  void SetGpuEnabled(int gpu, bool enabled);
  bool IsGpuEnabled(int gpu) const {
    return enabled_.at(static_cast<std::size_t>(gpu));
  }
  int num_enabled_gpus() const;

  /// Cluster scale advice (paper §5.1): more GPUs are needed when no lightly
  /// loaded GPU exists; zero-load GPUs can be released.
  struct ScaleAdvice {
    bool need_more_gpus = false;
    std::vector<int> releasable_gpus;
  };
  ScaleAdvice Advise() const;

 private:
  int PickGpuFor(const ServingRequest& req, int exclude_gpu) const;
  void Enqueue(ServingRequest* req);

  std::vector<ExecutionBackend*> backends_;
  std::vector<bool> enabled_;
  std::deque<ServingRequest*> queue_;  ///< kept FCFS by (arrival_time, id)
};

}  // namespace punica
