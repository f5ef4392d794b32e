// Discrete-event cluster driver: the paper's cluster experiment (Fig. 13)
// and, with one backend, the text-generation experiments (Figs. 11–12).
// It is the StepLoop core plus trace and frontend submission, periodic
// consolidation and autoscale timers, and ClusterStats sampled from the
// core's step hooks. The simulated tier builds one GpuRunner per GPU from
// ClusterConfig (cost-model time, synthetic tokens); on any tier the caller
// may instead pass ExecutionBackend pointers (e.g. EngineBackend over real
// engines), and the same machinery drives real text generation.
#pragma once

#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "gpu/costmodel.h"
#include "runtime/backend.h"
#include "runtime/runner.h"
#include "sched/autoscale.h"
#include "sched/scheduler.h"
#include "sched/step_loop.h"
#include "util/stats.h"
#include "workload/trace.h"

namespace punica {

struct ClusterConfig {
  int num_gpus = 16;
  RunnerConfig runner;
  LlamaConfig model;
  bool enable_consolidation = true;
  double consolidation_interval_s = 60.0;
  /// Cloud autoscaling (§5.1): when enabled, the driver starts with
  /// `initial_gpus` (highest UUIDs) in service and acquires/releases GPUs
  /// from the `num_gpus` pool on each autoscale tick.
  bool enable_autoscale = false;
  int initial_gpus = -1;  ///< -1 = all
  double autoscale_interval_s = 30.0;
  AutoscalePolicy autoscale;
};

struct ClusterStats {
  TimeSeries arrivals;               ///< (arrival time, 1)
  TimeSeries tokens;                 ///< (step completion, tokens emitted)
  std::vector<TimeSeries> gpu_batch; ///< per GPU: (step start, batch size)
  std::int64_t finished_requests = 0;
  std::int64_t migrations = 0;
  std::int64_t total_new_tokens = 0;
  std::int64_t total_steps = 0;
  LatencyRecorder request_latency;     ///< finish − arrival
  LatencyRecorder first_token_latency; ///< TTFT, dated from arrival
  RunningStat step_batch_size;
  double makespan = 0.0;
  std::vector<double> gpu_busy_s;    ///< per GPU accumulated busy time
  TimeSeries active_gpus;            ///< (autoscale tick, GPUs in service)
  std::int64_t gpu_acquisitions = 0;
  std::int64_t gpu_releases = 0;
  /// Trace rows refused at submit: no prompt token or no token to generate.
  std::int64_t rejected_requests = 0;
};

class ClusterDriver {
 public:
  /// Simulated tier: builds `config.num_gpus` cost-model runners.
  ClusterDriver(const ClusterConfig& config, const CostModel* cost_model);

  /// Any tier: drives caller-owned backends (which must outlive the
  /// driver). `config.num_gpus`/`config.runner`/`config.model` are ignored;
  /// the consolidation/autoscale knobs apply as usual.
  ClusterDriver(std::vector<ExecutionBackend*> backends,
                const ClusterConfig& config = {});

  /// Copies the trace into stable storage and schedules arrival events.
  /// Rows that some backend does not serve (ExecutionBackend::Serves — an
  /// empty prompt or an output length below one on every tier) are
  /// refused and counted in stats().rejected_requests.
  void SubmitTrace(const std::vector<TraceRequest>& trace);

  /// Submits an externally-owned request (frontend path, Fig. 2) at the
  /// current simulated time. The caller keeps ownership and must keep the
  /// request alive until it finishes or is cancelled.
  void SubmitExternal(ServingRequest* req);

  /// Cancels an externally-owned request (user disconnect) and forgets it;
  /// the caller may free the request afterwards. Returns true if it was
  /// still queued or running.
  bool CancelExternal(std::int64_t request_id);

  /// Per-step emission callback, fired at each step's completion time with
  /// the step's emitted tokens (real ids on the numeric tier, sequence tags
  /// on the simulated tier) and finished ids. Used by frontends to stream
  /// tokens back to users.
  using EmissionCallback =
      std::function<void(const StepResult& result, double now)>;
  void SetEmissionCallback(EmissionCallback cb) {
    emission_cb_ = std::move(cb);
  }

  /// Runs the deployment until all work drains (or `horizon` passes).
  void Run(double horizon = std::numeric_limits<double>::infinity());

  /// `migrations` is brought up to date when Run returns.
  const ClusterStats& stats() const { return stats_; }
  Scheduler& scheduler() { return core_->scheduler(); }
  const std::deque<ServingRequest>& requests() const { return requests_; }
  int num_backends() const { return core_->scheduler().num_gpus(); }

 private:
  void Init(std::vector<ExecutionBackend*> backends);
  void OnArrival(ServingRequest* req);
  void OnStepDone(const StepResult& result, double now);
  void ScheduleConsolidation();
  void ScheduleAutoscale();

  ClusterConfig config_;
  std::vector<std::unique_ptr<GpuRunner>> owned_runners_;  ///< sim tier only
  std::unique_ptr<StepLoop> core_;
  std::unique_ptr<AutoscaleController> autoscaler_;
  std::deque<ServingRequest> requests_;  ///< stable request storage
  std::unordered_map<std::int64_t, ServingRequest*> requests_by_id_;
  ClusterStats stats_;
  EmissionCallback emission_cb_;
  int timer_events_pending_ = 0;  ///< consolidation/autoscale timers in
                                  ///< flight — they must not keep each
                                  ///< other (or themselves) alive

  /// True while any non-timer event (arrival, step completion, wake) is
  /// scheduled — the condition for periodic timers to stay alive.
  bool HasNonTimerEvents() const {
    return static_cast<int>(core_->events().pending()) >
           timer_events_pending_;
  }
};

}  // namespace punica
