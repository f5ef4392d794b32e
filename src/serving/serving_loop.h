// The open-loop serving loop: the StepLoop core plus an admission door,
// which decouples request *arrival* from engine *readiness*.
//
// Requests enter a bounded, priority-ordered door and are admitted into the
// core's Scheduler only when some backend has capacity. Under overload the
// door sheds: on overflow it drops the lowest-priority entry, and any
// unprotected entry that has already waited past `shed_slack ×` its TTFT
// target is dropped as hopeless (it could no longer be "good"; serving it
// would only burn capacity a fresher request could convert into goodput).
// Higher-priority tenants are *deferred over*, never shed, up to the door
// bound. Specs a backend does not serve (nothing to prefill or to
// generate; on the numeric tier also an unregistered adapter or a token
// outside the vocabulary) are shed on arrival.
//
// Two clocks drive the core:
//   * RunVirtual — arrivals and step completions are events on the core's
//     queue, and each one tries the door. Fully deterministic: the same
//     offered schedule yields bit-identical token streams and SLO metrics
//     at any thread count and SIMD level.
//   * RunThreaded — drains a live ArrivalQueue fed by submitter threads;
//     each pass tries the door, then steps every backend once at the wall
//     clock (seconds since the loop started). Per-step service time still
//     comes from the backend. This is the mode wall-clock benches use.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "runtime/backend.h"
#include "sched/step_loop.h"
#include "serving/arrival_queue.h"
#include "serving/metrics.h"
#include "serving/slo.h"
#include "workload/trace.h"

namespace punica {

struct ServingLoopConfig {
  SloSpec slo;
  /// Front-door bound: arrivals beyond this shed the lowest-priority
  /// waiter (the bounded-buffer form of backpressure).
  std::size_t door_capacity = 256;
  /// An unprotected request that has waited longer than
  /// `shed_slack × slo.ttft_target_s` at the door is shed as hopeless.
  double shed_slack = 4.0;
  /// Requests with priority ≥ this are never shed — only deferred. Set
  /// above every class to make shedding purely overflow-driven.
  std::int32_t protected_priority = 1;
  /// Collect per-request token streams (determinism checks; turn off for
  /// long sweeps to save memory).
  bool record_streams = true;
};

class ServingLoop {
 public:
  /// Drives caller-owned backends (which must outlive the loop). A loop
  /// instance runs one workload: construct fresh per run.
  explicit ServingLoop(std::vector<ExecutionBackend*> backends,
                       ServingLoopConfig config = {});

  /// Virtual-time replay: schedules every spec's arrival on the event
  /// queue and runs until all admitted work drains. Specs may carry real
  /// prompt tokens (numeric tier) or synthetic lengths (simulated tier).
  void RunVirtual(const std::vector<SubmitSpec>& offered);

  /// Trace convenience overload (synthetic prompts).
  void RunVirtual(const std::vector<TraceRequest>& trace);

  /// Real-threads mode: consumes `queue` until it is shut down and fully
  /// drained, then finishes the in-flight work. Blocks the calling thread.
  void RunThreaded(ArrivalQueue& queue);

  const ServingMetrics& metrics() const { return metrics_; }
  /// Per-request emitted tokens, keyed by loop-assigned request id (specs
  /// are numbered 0, 1, 2, … in offered order). Real ids on the numeric
  /// tier, sequence tags on the simulated tier.
  const std::map<std::int64_t, std::vector<std::int32_t>>& streams() const {
    return streams_;
  }
  std::int64_t migrations() const { return core_.migrations(); }
  /// Post-run inspection of every accepted request (stable storage, ids in
  /// offered order): phase tells finished vs shed, and the stamped
  /// arrival/admit/first-token/finish times are all there.
  const std::deque<ServingRequest>& requests() const { return requests_; }
  /// Clock value when the run drained (virtual seconds for RunVirtual,
  /// wall-clock seconds since start for RunThreaded).
  double end_time() const { return end_time_; }

 private:
  /// Stores the spec as the next request. A spec some backend does not
  /// serve (ExecutionBackend::Serves: max_new_tokens or prompt length < 1,
  /// and on the numeric tier an unregistered adapter or a token outside
  /// the vocabulary) is counted offered and shed at once, and nullptr is
  /// returned.
  ServingRequest* Accept(const SubmitSpec& spec);
  void OnArrival(ServingRequest* req);
  bool Protected(const ServingRequest& req) const {
    return req.priority >= config_.protected_priority;
  }
  /// Marks `req` shed; the caller takes it off the door.
  void Shed(ServingRequest* req);
  bool AnyBackendCanAdmit(const ServingRequest& req) const;
  /// Sheds stale unprotected waiters, then admits in (priority desc,
  /// arrival, id) order, scanning past entries no backend can take yet.
  /// Returns the GPU each admitted request went to (the caller on the
  /// virtual clock wakes them).
  std::vector<int> TryAdmit(double now);
  void HandleStepResult(const StepResult& result, double now);

  ServingLoopConfig config_;
  StepLoop core_;
  bool threaded_ = false;  ///< re-stamp first-token/finish with wall time
  std::deque<ServingRequest> requests_;  ///< stable storage, indexed by id
  std::vector<ServingRequest*> door_;
  std::unordered_map<std::int64_t, double> last_emit_;  ///< for ITL gaps
  std::map<std::int64_t, std::vector<std::int32_t>> streams_;
  ServingMetrics metrics_;
  double end_time_ = 0.0;
  bool ran_ = false;
};

}  // namespace punica
