#include "serving/serving_loop.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

#include "serving/load_generator.h"
#include "util/check.h"

namespace punica {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

ServingLoop::ServingLoop(std::vector<ExecutionBackend*> backends,
                         ServingLoopConfig config)
    : config_(config),
      backends_(std::move(backends)),
      scheduler_(backends_) {
  PUNICA_CHECK(!backends_.empty());
  PUNICA_CHECK(config_.door_capacity >= 1);
  PUNICA_CHECK(config_.shed_slack > 0.0);
  busy_.assign(backends_.size(), false);
  pending_wake_.assign(backends_.size(), kInf);
}

ServingRequest* ServingLoop::Accept(const SubmitSpec& spec) {
  PUNICA_CHECK(spec.max_new_tokens >= 1);
  requests_.push_back(ServingRequest::FromSpec(next_id_++, spec));
  ServingRequest* req = &requests_.back();
  requests_by_id_[req->id] = req;
  return req;
}

void ServingLoop::OnArrival(ServingRequest* req, double now) {
  ++metrics_.offered;
  door_.push_back({req, next_seq_++});
  if (door_.size() > config_.door_capacity) {
    // Overflow backpressure: among *unprotected* waiters, shed the one
    // least likely to ever be good — lowest priority, then
    // longest-waiting, then earliest accepted. When every waiter is
    // protected the bound still binds: the incoming request (pushed last)
    // is refused, since deferring is no longer possible.
    std::size_t victim = door_.size() - 1;
    bool found = false;
    for (std::size_t i = 0; i < door_.size(); ++i) {
      const ServingRequest& a = *door_[i].req;
      if (a.priority >= config_.protected_priority) continue;
      if (!found) {
        victim = i;
        found = true;
        continue;
      }
      const ServingRequest& b = *door_[victim].req;
      if (a.priority != b.priority) {
        if (a.priority < b.priority) victim = i;
      } else if (a.arrival_time != b.arrival_time) {
        if (a.arrival_time < b.arrival_time) victim = i;
      } else if (door_[i].seq < door_[victim].seq) {
        victim = i;
      }
    }
    Shed(victim);
  }
  if (!threaded_) TryAdmit(now);
}

void ServingLoop::Shed(std::size_t door_index) {
  ServingRequest* req = door_.at(door_index).req;
  req->phase = RequestPhase::kCancelled;
  ++metrics_.shed;
  requests_by_id_.erase(req->id);
  door_.erase(door_.begin() + static_cast<std::ptrdiff_t>(door_index));
}

bool ServingLoop::AnyBackendCanAdmit(const ServingRequest& req) const {
  for (int g = 0; g < scheduler_.num_gpus(); ++g) {
    if (scheduler_.IsGpuEnabled(g) && scheduler_.backend(g)->CanAdmit(req)) {
      return true;
    }
  }
  return false;
}

std::size_t ServingLoop::TryAdmit(double now) {
  // Hopeless-waiter shedding: an unprotected request that has already
  // overshot `shed_slack ×` its TTFT target can no longer be good; serving
  // it would burn capacity a fresher request could convert into goodput.
  double stale_after = config_.shed_slack * config_.slo.ttft_target_s;
  for (std::size_t i = 0; i < door_.size();) {
    const ServingRequest& r = *door_[i].req;
    if (r.priority < config_.protected_priority &&
        now - r.arrival_time > stale_after) {
      Shed(i);
    } else {
      ++i;
    }
  }
  // Admission order: priority classes first (defer low over high), FCFS
  // within a class, accept sequence as the final deterministic tiebreak.
  std::sort(door_.begin(), door_.end(),
            [](const DoorEntry& a, const DoorEntry& b) {
              if (a.req->priority != b.req->priority) {
                return a.req->priority > b.req->priority;
              }
              if (a.req->arrival_time != b.req->arrival_time) {
                return a.req->arrival_time < b.req->arrival_time;
              }
              return a.seq < b.seq;
            });
  std::size_t admitted = 0;
  std::vector<int> woken;
  for (std::size_t i = 0; i < door_.size();) {
    ServingRequest* r = door_[i].req;
    // A migration victim no backend could take sits in the scheduler's
    // queue; Submit's FCFS rule would queue this request behind it even
    // when a backend has room, so it waits here until PumpQueue has
    // drained the victim.
    if (!scheduler_.QueuedAhead(*r) && AnyBackendCanAdmit(*r)) {
      int gpu = scheduler_.Submit(r, now);
      PUNICA_CHECK_MSG(gpu >= 0, "admission raced the capacity check");
      door_.erase(door_.begin() + static_cast<std::ptrdiff_t>(i));
      ++admitted;
      woken.push_back(gpu);
    } else {
      // Deferred: keep scanning so one oversized request cannot idle the
      // cluster (priority stays a preference, not a hard barrier).
      ++i;
    }
  }
  WakeGpus(woken);
  return admitted;
}

void ServingLoop::WakeGpus(const std::vector<int>& gpus) {
  if (threaded_) return;  // RunThreaded polls every backend each pass
  for (int g : gpus) MaybeStartStep(g);
}

void ServingLoop::MaybeStartStep(int gpu) {
  if (threaded_) return;
  auto gi = static_cast<std::size_t>(gpu);
  if (busy_[gi]) return;
  ExecutionBackend& backend = *backends_[gi];
  double now = events_.now();

  std::vector<int> touched =
      scheduler_.MigrateForKvPressure(gpu, now, &migrations_);

  if (backend.HasRunnableWork(now)) {
    StepResult result = backend.Step(now);
    PUNICA_CHECK(result.batch_size > 0);
    busy_[gi] = true;
    events_.ScheduleAfter(result.latency, [this, gpu, result] {
      busy_[static_cast<std::size_t>(gpu)] = false;
      double done = events_.now();
      HandleStepResult(gpu, result, done);
      WakeGpus(scheduler_.PumpQueue(done));
      // Freed capacity first (continuous batching refills the working set),
      // then restart this GPU.
      TryAdmit(done);
      MaybeStartStep(gpu);
    });
  } else if (auto ready = backend.NextReadyTime(now); ready.has_value()) {
    if (*ready < pending_wake_[gi] - 1e-12) {
      pending_wake_[gi] = *ready;
      events_.Schedule(*ready, [this, gpu] {
        pending_wake_[static_cast<std::size_t>(gpu)] = kInf;
        MaybeStartStep(gpu);
      });
    }
  }

  WakeGpus(touched);
}

void ServingLoop::HandleStepResult(int gpu, const StepResult& result,
                                   double now) {
  (void)gpu;
  metrics_.total_new_tokens += result.new_tokens;
  for (const auto& e : result.emitted) {
    if (config_.record_streams) {
      streams_[e.request_id].push_back(e.token);
    }
    auto it = last_emit_.find(e.request_id);
    if (it != last_emit_.end()) {
      metrics_.itl.Add(now - it->second);
    } else if (threaded_) {
      // Real-threads mode measures wall-clock SLOs: re-stamp the first
      // token with the loop clock. (Backends stamped virtual/modeled
      // times, which don't advance at wall pace here.)
      auto rit = requests_by_id_.find(e.request_id);
      if (rit != requests_by_id_.end()) rit->second->first_token_time = now;
    }
    last_emit_[e.request_id] = now;
  }
  for (std::int64_t id : result.finished) {
    auto it = requests_by_id_.find(id);
    if (it == requests_by_id_.end()) continue;
    if (threaded_) it->second->finish_time = now;
    metrics_.RecordFinished(*it->second, config_.slo);
    requests_by_id_.erase(it);
    last_emit_.erase(id);
  }
}

void ServingLoop::RunVirtual(const std::vector<SubmitSpec>& offered) {
  PUNICA_CHECK_MSG(!ran_, "a ServingLoop instance runs one workload");
  ran_ = true;
  for (const auto& spec : offered) {
    ServingRequest* req = Accept(spec);
    // Equal arrival times run in offered order (EventQueue FIFO tiebreak),
    // so the replay is deterministic end to end.
    events_.Schedule(spec.arrival_time,
                     [this, req] { OnArrival(req, events_.now()); });
  }
  events_.RunAll();
  end_time_ = events_.now();
  // Whatever is still at the door could never be admitted (no event can
  // free capacity anymore): account it as shed, not silently dropped.
  while (!door_.empty()) Shed(0);
  for (ServingRequest* r : scheduler_.queue()) {
    ++metrics_.shed;
    requests_by_id_.erase(r->id);
  }
}

void ServingLoop::RunVirtual(const std::vector<TraceRequest>& trace) {
  std::vector<SubmitSpec> specs;
  specs.reserve(trace.size());
  for (const auto& r : trace) specs.push_back(SpecFromTrace(r));
  RunVirtual(specs);
}

bool ServingLoop::StepOnceThreaded(double now) {
  bool stepped = false;
  for (int g = 0; g < scheduler_.num_gpus(); ++g) {
    ExecutionBackend& backend = *backends_[static_cast<std::size_t>(g)];
    scheduler_.MigrateForKvPressure(g, now, &migrations_);
    if (backend.HasRunnableWork(now)) {
      StepResult result = backend.Step(now);
      PUNICA_CHECK(result.batch_size > 0);
      // Wall-clock timestamps throughout: HandleStepResult re-stamps
      // first-token/finish with the loop clock, since backend-stamped
      // virtual times don't advance at wall pace.
      HandleStepResult(g, result, now);
      stepped = true;
    }
  }
  if (stepped) scheduler_.PumpQueue(now);
  return stepped;
}

void ServingLoop::RunThreaded(ArrivalQueue& queue) {
  PUNICA_CHECK_MSG(!ran_, "a ServingLoop instance runs one workload");
  ran_ = true;
  threaded_ = true;
  auto start = std::chrono::steady_clock::now();
  auto now_s = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  // Arrival stamps come from the producer's clock, which started before
  // this loop's: clamp so no request "arrives" in the loop's future (the
  // mirror of ClusterDriver::SubmitExternal's past-stamp clamp). Stamps in
  // the past are kept — that lag is real queueing and must be charged.
  auto accept = [this, &now_s](const SubmitSpec& spec) {
    double now = now_s();
    ServingRequest* req = Accept(spec);
    req->arrival_time = std::min(req->arrival_time, now);
    OnArrival(req, now);
  };
  bool open = true;  // producers may still push
  for (;;) {
    bool any_work = false;
    for (const auto* b : backends_) any_work = any_work || b->HasAnyWork();
    bool idle = door_.empty() && !any_work && scheduler_.queue_size() == 0;
    if (open && idle) {
      // Nothing to serve: block until the next arrival (or shutdown)
      // instead of spinning.
      if (auto spec = queue.Pop(); spec.has_value()) {
        accept(*spec);
      } else {
        open = false;
      }
    }
    if (open) {
      while (auto spec = queue.TryPop()) accept(*spec);
      if (queue.shutdown() && queue.size() == 0) open = false;
    }
    double now = now_s();
    std::size_t admitted = TryAdmit(now);
    bool stepped = StepOnceThreaded(now);

    bool work_left = false;
    for (const auto* b : backends_) work_left = work_left || b->HasAnyWork();
    if (!open && !work_left && scheduler_.queue_size() == 0) {
      if (door_.empty()) break;
      if (!stepped && admitted == 0) {
        // No producer, no runnable work, nothing admitted: the residue at
        // the door is unservable — shed it rather than spin forever.
        while (!door_.empty()) Shed(0);
        break;
      }
    }
    if (!stepped && admitted == 0) {
      // Waiting on an adapter load or a mid-schedule lull.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  end_time_ = now_s();
}

}  // namespace punica
