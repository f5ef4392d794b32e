// Open-loop load generation: requests arrive on their own schedule, whether
// or not the engine keeps up (the regime where queueing, shedding and SLO
// misses actually happen — a closed loop self-throttles and hides them).
//
// Two delivery modes share the same trace:
//   * virtual time — hand the trace to ServingLoop::RunVirtual, which
//     replays arrivals on the discrete-event clock (deterministic);
//   * real threads — TraceSubmitter spawns submitter threads that sleep
//     until each wall-clock arrival and push into an ArrivalQueue
//     (the mode wall-clock benches and the MPSC stress path use).
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "serving/arrival_queue.h"
#include "workload/lengths.h"
#include "workload/trace.h"

namespace punica {

/// Knobs for a Poisson open-loop workload. Arrival gaps come from
/// PoissonArrivalsKeyed, so the schedule is a pure function of
/// (seed, rate, index) — the same spec replays bit-identically.
struct OpenLoopSpec {
  double rate_rps = 8.0;  ///< offered load (requests per second)
  int num_requests = 256;
  std::uint64_t seed = 0xC0FFEE;
  int num_models = 8;
  double zipf_alpha = 1.5;
  ShareGptLengthSampler::Params lengths = {};
  SharedPrefixSpec shared_prefix = {};
  std::int32_t priority_classes = 1;
};

/// Generates the open-loop trace for `spec` (deterministic in the spec).
std::vector<TraceRequest> GenerateOpenLoopLoad(const OpenLoopSpec& spec);

/// Real-threads delivery: replays `specs` against the wall clock through a
/// fleet of submitter threads. Thread t handles specs t, t+N, t+2N, …,
/// sleeping until each arrival (scaled by `time_scale`; < 1 compresses;
/// arrival stamps are rescaled to match) and blocking in
/// ArrivalQueue::Push when the consumer lags — the backpressure path. The
/// last submitter to finish shuts the queue down, so a consumer loop
/// (e.g. ServingLoop::RunThreaded) drains and returns on its own; Join()
/// then just reaps the threads.
class TraceSubmitter {
 public:
  explicit TraceSubmitter(std::vector<SubmitSpec> specs,
                          double time_scale = 1.0);
  ~TraceSubmitter();

  /// Spawns `num_threads` submitters feeding `queue` (borrowed; must
  /// outlive Join). Call once.
  void Start(ArrivalQueue* queue, int num_threads);

  /// Joins all submitters. Idempotent (the destructor calls it too).
  void Join();

 private:
  std::vector<SubmitSpec> specs_;
  double time_scale_;
  ArrivalQueue* queue_ = nullptr;
  std::vector<std::thread> threads_;
  std::atomic<int> remaining_{0};  ///< submitters still running
};

}  // namespace punica
