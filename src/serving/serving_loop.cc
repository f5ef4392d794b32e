#include "serving/serving_loop.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>
#include <tuple>

#include "util/check.h"

namespace punica {

ServingLoop::ServingLoop(std::vector<ExecutionBackend*> backends,
                         ServingLoopConfig config)
    : config_(config),
      core_(std::move(backends),
            {.on_done = std::bind_front(&ServingLoop::HandleStepResult, this),
             .refill = std::bind_front(&ServingLoop::TryAdmit, this)}) {
  PUNICA_CHECK(config_.door_capacity >= 1);
  PUNICA_CHECK(config_.shed_slack > 0.0);
}

ServingRequest* ServingLoop::Accept(const SubmitSpec& spec) {
  auto id = static_cast<std::int64_t>(requests_.size());
  requests_.push_back(ServingRequest::FromSpec(id, spec));
  ServingRequest* req = &requests_.back();
  if (!core_.Serves(spec)) {
    // A backend cannot run it (e.g. nothing to generate, an unregistered
    // adapter, a token outside the vocabulary), so the door refuses it
    // outright.
    ++metrics_.offered;
    Shed(req);
    return nullptr;
  }
  return req;
}

void ServingLoop::OnArrival(ServingRequest* req) {
  ++metrics_.offered;
  door_.push_back(req);
  if (door_.size() > config_.door_capacity) {
    // Overflow backpressure: among *unprotected* waiters, shed the one
    // least likely to ever be good — lowest priority, then
    // longest-waiting, then earliest accepted (ids are issued in accept
    // order). When every waiter is protected the bound still binds: the
    // incoming request (pushed last) is refused, since deferring is no
    // longer possible.
    auto shed_key = [](const ServingRequest* r) {
      return std::tuple(r->priority, r->arrival_time, r->id);
    };
    auto victim = door_.end() - 1;
    for (auto it = door_.begin(); it != door_.end(); ++it) {
      if (!Protected(**it) &&
          (Protected(**victim) || shed_key(*it) < shed_key(*victim))) {
        victim = it;
      }
    }
    Shed(*victim);
    door_.erase(victim);
  }
}

void ServingLoop::Shed(ServingRequest* req) {
  req->phase = RequestPhase::kCancelled;
  ++metrics_.shed;
}

bool ServingLoop::AnyBackendCanAdmit(const ServingRequest& req) const {
  const Scheduler& scheduler = core_.scheduler();
  for (int g = 0; g < scheduler.num_gpus(); ++g) {
    if (scheduler.IsGpuEnabled(g) && scheduler.backend(g)->CanAdmit(req)) {
      return true;
    }
  }
  return false;
}

std::vector<int> ServingLoop::TryAdmit(double now) {
  // Hopeless-waiter shedding: an unprotected request that has already
  // overshot `shed_slack ×` its TTFT target can no longer be good; serving
  // it would burn capacity a fresher request could convert into goodput.
  double stale_after = config_.shed_slack * config_.slo.ttft_target_s;
  std::erase_if(door_, [&](ServingRequest* r) {
    bool stale = !Protected(*r) && now - r->arrival_time > stale_after;
    if (stale) Shed(r);
    return stale;
  });
  // Admission order: priority classes first (defer low over high), FCFS
  // within a class, accept order (the id) as the deterministic tiebreak.
  std::sort(door_.begin(), door_.end(),
            [](const ServingRequest* a, const ServingRequest* b) {
              return std::tuple(b->priority, a->arrival_time, a->id) <
                     std::tuple(a->priority, b->arrival_time, b->id);
            });
  std::vector<int> filled;
  for (std::size_t i = 0; i < door_.size();) {
    ServingRequest* r = door_[i];
    // A migration victim no backend could take sits in the scheduler's
    // queue; Submit's FCFS rule would queue this request behind it even
    // when a backend has room, so it waits here until PumpQueue has
    // drained the victim.
    if (!core_.scheduler().QueuedAhead(*r) && AnyBackendCanAdmit(*r)) {
      int gpu = core_.scheduler().Submit(r, now);
      PUNICA_CHECK_MSG(gpu >= 0, "admission raced the capacity check");
      door_.erase(door_.begin() + static_cast<std::ptrdiff_t>(i));
      filled.push_back(gpu);
    } else {
      // Deferred: keep scanning so one oversized request cannot idle the
      // cluster (priority stays a preference, not a hard barrier).
      ++i;
    }
  }
  return filled;
}

void ServingLoop::HandleStepResult(const StepResult& result, double now) {
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
      requests_.at(static_cast<std::size_t>(e.request_id)).first_token_time =
          now;
    }
    last_emit_[e.request_id] = now;
  }
  for (std::int64_t id : result.finished) {
    ServingRequest& req = requests_.at(static_cast<std::size_t>(id));
    if (threaded_) req.finish_time = now;
    metrics_.RecordFinished(req, config_.slo);
    last_emit_.erase(id);
  }
}

void ServingLoop::RunVirtual(const std::vector<SubmitSpec>& offered) {
  PUNICA_CHECK_MSG(!ran_, "a ServingLoop instance runs one workload");
  ran_ = true;
  for (const auto& spec : offered) {
    ServingRequest* req = Accept(spec);
    if (req == nullptr) continue;
    // Equal arrival times run in offered order (EventQueue FIFO tiebreak),
    // so the replay is deterministic end to end.
    core_.events().Schedule(spec.arrival_time, [this, req] {
      OnArrival(req);
      core_.WakeGpus(TryAdmit(core_.events().now()));
    });
  }
  core_.events().RunAll();
  end_time_ = core_.events().now();
  // Whatever is still at the door could never be admitted (no event can
  // free capacity anymore): account it as shed, not silently dropped.
  for (ServingRequest* r : door_) Shed(r);
  door_.clear();
  metrics_.shed += static_cast<std::int64_t>(core_.scheduler().queue_size());
}

void ServingLoop::RunVirtual(const std::vector<TraceRequest>& trace) {
  std::vector<SubmitSpec> specs;
  specs.reserve(trace.size());
  for (const auto& r : trace) specs.push_back(SpecFromTrace(r));
  RunVirtual(specs);
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
    ServingRequest* req = Accept(spec);
    if (req == nullptr) return;
    req->arrival_time = std::min(req->arrival_time, now_s());
    OnArrival(req);
  };
  bool open = true;  // producers may still push
  for (;;) {
    if (open && door_.empty() && core_.Drained()) {
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
    bool admitted = !TryAdmit(now).empty();
    bool stepped = core_.StepEachOnce(now);
    if (!open && core_.Drained() &&
        (door_.empty() || (!stepped && !admitted))) {
      // No producer and no work left: any residue at the door is
      // unservable, so shed it rather than spin forever.
      for (ServingRequest* r : door_) Shed(r);
      door_.clear();
      break;
    }
    if (!stepped && !admitted) {
      // Waiting on an adapter load or a mid-schedule lull.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  end_time_ = now_s();
}

}  // namespace punica
