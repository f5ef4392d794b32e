#include "sched/cluster.h"

#include <algorithm>

#include "util/check.h"

namespace punica {

ClusterDriver::ClusterDriver(const ClusterConfig& config,
                             const CostModel* cost_model)
    : config_(config) {
  PUNICA_CHECK(config.num_gpus >= 1);
  PUNICA_CHECK(cost_model != nullptr);
  std::vector<ExecutionBackend*> backends;
  for (int g = 0; g < config.num_gpus; ++g) {
    owned_runners_.push_back(std::make_unique<GpuRunner>(
        g, config.runner, config.model, cost_model));
    backends.push_back(owned_runners_.back().get());
  }
  Init(std::move(backends));
}

ClusterDriver::ClusterDriver(std::vector<ExecutionBackend*> backends,
                             const ClusterConfig& config)
    : config_(config) {
  Init(std::move(backends));
}

void ClusterDriver::Init(std::vector<ExecutionBackend*> backends) {
  auto n = backends.size();
  StepLoop::Hooks hooks;
  hooks.on_start = [this](int gpu, const StepResult& r, double now) {
    auto gi = static_cast<std::size_t>(gpu);
    stats_.gpu_batch[gi].Add(now, r.batch_size);
    stats_.step_batch_size.Add(r.batch_size);
    stats_.gpu_busy_s[gi] += r.latency;
    ++stats_.total_steps;
  };
  hooks.on_idle = [this](int gpu, double now) {
    stats_.gpu_batch[static_cast<std::size_t>(gpu)].Add(now, 0.0);
  };
  hooks.on_done = std::bind_front(&ClusterDriver::OnStepDone, this);
  core_ = std::make_unique<StepLoop>(std::move(backends), std::move(hooks));
  if (config_.enable_autoscale) {
    autoscaler_ = std::make_unique<AutoscaleController>(&core_->scheduler(),
                                                        config_.autoscale);
    int initial = config_.initial_gpus < 0 ? static_cast<int>(n)
                                           : config_.initial_gpus;
    PUNICA_CHECK(initial >= 1 && initial <= static_cast<int>(n));
    // Start with the highest UUIDs in service (consistent with routing).
    for (int g = 0; g < static_cast<int>(n) - initial; ++g) {
      core_->scheduler().SetGpuEnabled(g, false);
    }
  }
  stats_.gpu_batch.resize(n);
  stats_.gpu_busy_s.assign(n, 0.0);
}

void ClusterDriver::SubmitTrace(const std::vector<TraceRequest>& trace) {
  for (const auto& t : trace) {
    const SubmitSpec spec = SpecFromTrace(t);
    if (!core_->Serves(spec)) {
      // Refused here, as the serving door does.
      ++stats_.rejected_requests;
      continue;
    }
    requests_.push_back(ServingRequest::FromSpec(t.id, spec));
    ServingRequest* req = &requests_.back();
    requests_by_id_[req->id] = req;
    core_->events().Schedule(t.arrival_time, [this, req] { OnArrival(req); });
  }
  if (config_.enable_consolidation) ScheduleConsolidation();
  if (config_.enable_autoscale) ScheduleAutoscale();
}

void ClusterDriver::ScheduleAutoscale() {
  ++timer_events_pending_;
  core_->events().ScheduleAfter(config_.autoscale_interval_s, [this] {
    --timer_events_pending_;
    double now = core_->events().now();
    AutoscaleController::Decision d = autoscaler_->Tick();
    stats_.gpu_acquisitions = autoscaler_->total_acquisitions();
    stats_.gpu_releases = autoscaler_->total_releases();
    stats_.active_gpus.Add(now,
                           static_cast<double>(autoscaler_->active_gpus()));
    if (d.acquired_gpu >= 0) {
      core_->WakeGpus(core_->scheduler().PumpQueue(now));
    }
    if (HasNonTimerEvents()) ScheduleAutoscale();
  });
}

void ClusterDriver::ScheduleConsolidation() {
  ++timer_events_pending_;
  core_->events().ScheduleAfter(config_.consolidation_interval_s, [this] {
    --timer_events_pending_;
    core_->Consolidate(/*max_moves=*/16);  // one round, bounded defensively
    // Keep the periodic timer alive while real events (arrivals, steps,
    // wakes) remain; timers must not keep each other alive.
    if (HasNonTimerEvents()) ScheduleConsolidation();
  });
}

void ClusterDriver::SubmitExternal(ServingRequest* req) {
  PUNICA_CHECK(req != nullptr);
  // An external request cannot have arrived before the instant it is
  // submitted: clamp so a default arrival_time of 0 on a mid-run
  // submission neither jumps the FCFS queue nor skews latency stats.
  req->arrival_time = std::max(req->arrival_time, core_->events().now());
  requests_by_id_[req->id] = req;
  OnArrival(req);
}

bool ClusterDriver::CancelExternal(std::int64_t request_id) {
  // Forget the borrowed pointer first: once cancelled, the owner (e.g. a
  // frontend session) may free the request.
  requests_by_id_.erase(request_id);
  return core_->scheduler().Cancel(request_id);
}

void ClusterDriver::OnArrival(ServingRequest* req) {
  double now = core_->events().now();
  stats_.arrivals.Add(now, 1.0);
  int gpu = core_->scheduler().Submit(req, now);
  if (gpu >= 0) core_->MaybeStartStep(gpu);
}

void ClusterDriver::OnStepDone(const StepResult& result, double now) {
  stats_.tokens.Add(now, static_cast<double>(result.new_tokens));
  stats_.total_new_tokens += result.new_tokens;
  stats_.makespan = std::max(stats_.makespan, now);
  // Record finish stats *before* the emission callback: a frontend may free
  // a finished request's session (and thus the ServingRequest) as soon as
  // it learns the stream ended.
  for (std::int64_t id : result.finished) {
    auto it = requests_by_id_.find(id);
    // A request can be cancelled (and forgotten) while the step that
    // finishes it is still in flight; skip it rather than touch freed state.
    if (it == requests_by_id_.end()) continue;
    const ServingRequest& req = *it->second;
    ++stats_.finished_requests;
    stats_.request_latency.Add(req.finish_time - req.arrival_time);
    if (req.first_token_time >= 0.0) {
      stats_.first_token_latency.Add(req.first_token_time -
                                     req.arrival_time);
    }
    requests_by_id_.erase(it);
  }
  if (emission_cb_) emission_cb_(result, now);
}

void ClusterDriver::Run(double horizon) {
  if (horizon == std::numeric_limits<double>::infinity()) {
    core_->events().RunAll();
  } else {
    core_->events().RunUntil(horizon);
  }
  stats_.migrations = core_->migrations();
}

}  // namespace punica
