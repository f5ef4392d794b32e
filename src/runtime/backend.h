// ExecutionBackend: the one serving interface both tiers implement.
//
// The paper's serving path (Fig. 2: frontends → scheduler → runners) exists
// in this repo twice: GpuRunner simulates paper-scale GPUs through the
// analytical cost model (virtual time, synthetic tokens), while Engine
// executes a real tiny Llama on CPU (wall-clock-free, real token ids). This
// interface is what lets Scheduler, ClusterDriver, migration and
// consolidation run unchanged over either tier: admission constraints,
// cancel-with-snapshot (the §5.3 migration primitive), batched stepping and
// the KvCache-pressure victim query all have one shape.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "runtime/request.h"

namespace punica {

/// One token emitted by a step. `token` is the real id on numeric backends;
/// on the simulated tier it is a per-request sequence tag (0, 1, 2, …) —
/// ordering and timing are what that tier is responsible for, not content.
struct EmittedToken {
  std::int64_t request_id = 0;
  std::int32_t token = -1;
};

/// Result of one batched model invocation, shared by both tiers.
struct StepResult {
  double latency = 0.0;      ///< virtual-time cost of the invocation
  int batch_size = 0;        ///< requests in the invocation
  int prefill_requests = 0;  ///< prefill entries (chunks count, even partial)
  int prefill_tokens = 0;       ///< prefill tokens actually computed
  int prefix_hit_tokens = 0;    ///< prefill tokens skipped via cached prefixes
  /// Prefill entries whose chunk did NOT finish the prompt this step
  /// (chunked prefill): they emitted nothing and will take further chunks.
  int partial_prefills = 0;
  /// Prefill tokens still pending across the working set after this step —
  /// the backlog a step-token budget is amortizing.
  std::int64_t deferred_prefill_tokens = 0;
  int new_tokens = 0;        ///< tokens emitted (first tokens + decode)
  int num_segments = 0;      ///< SGMV segments in this invocation
  std::vector<EmittedToken> emitted;
  std::vector<std::int64_t> finished;  ///< ids that reached their stop
};

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  /// Stable identifier (the GPU UUID stand-in used for routing tiebreaks).
  virtual int backend_id() const = 0;
  virtual int max_batch_size() const = 0;

  // --- Admission (scheduler-facing, paper §5.1 constraints) ---

  /// True when a request submitted as `spec` can run to completion here
  /// once admitted. The serving doors ask every backend before accepting
  /// a spec, so input this tier cannot run is refused rather than failing
  /// inside a step. The default serves every Servable spec.
  virtual bool Serves(const SubmitSpec& spec) const {
    return spec.Servable();
  }

  /// Constraint check: below max batch size and enough KvCache headroom for
  /// the request's re-prefill (prompt + generated + one step).
  virtual bool CanAdmit(const ServingRequest& req) const = 0;

  /// Prefill tokens this backend's shared-prefix cache would serve for
  /// `req` (0 = cold). The scheduler uses it as a routing affinity signal;
  /// backends without a prefix cache keep the default.
  virtual std::int64_t PrefixHitTokens(const ServingRequest& req) const {
    (void)req;
    return 0;
  }

  /// Adds a request to the working set. The request object stays owned by
  /// the caller (the serving tier); a request with progress re-prefills
  /// prompt + generated in its first step (migration re-add).
  virtual void Admit(ServingRequest* req, double now) = 0;

  /// Removes a request (migration-evict or user cancel), releasing its
  /// KvCache, and returns a snapshot of everything needed to resume it
  /// elsewhere. nullopt when the id is not in the working set.
  virtual std::optional<RequestSnapshot> Cancel(std::int64_t request_id) = 0;

  // --- Execution ---

  /// True when some request could run at time `now` (adapter ready).
  virtual bool HasRunnableWork(double now) const = 0;
  /// True when any request is assigned (runnable or still loading).
  virtual bool HasAnyWork() const = 0;
  /// Earliest time a currently-blocked request becomes runnable (nullopt
  /// when nothing is blocked).
  virtual std::optional<double> NextReadyTime(double now) const = 0;

  /// KvCache-pressure victim query (§5.3): requests (newest first) that must
  /// be evicted before the next step fits. Empty when the next step fits.
  virtual std::vector<std::int64_t> SelectEvictionVictims(double now) const = 0;

  /// Runs one batched model invocation at time `now`.
  virtual StepResult Step(double now) = 0;

  // --- Introspection ---

  virtual int working_set_size() const = 0;
  /// The request with this id, or nullptr when not in the working set.
  virtual ServingRequest* Find(std::int64_t request_id) const = 0;
  /// The most recently admitted request (migration-victim order), or
  /// nullptr when the working set is empty.
  virtual ServingRequest* NewestRequest() const = 0;
};

}  // namespace punica
