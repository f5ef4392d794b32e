#include "sched/scheduler.h"

#include <algorithm>

#include "util/check.h"

namespace punica {

Scheduler::Scheduler(std::vector<ExecutionBackend*> backends)
    : backends_(std::move(backends)), enabled_(backends_.size(), true) {
  PUNICA_CHECK(!backends_.empty());
}

void Scheduler::SetGpuEnabled(int gpu, bool enabled) {
  auto gi = static_cast<std::size_t>(gpu);
  if (!enabled) {
    PUNICA_CHECK_MSG(backends_.at(gi)->working_set_size() == 0,
                     "cannot release a GPU with active requests");
  }
  enabled_.at(gi) = enabled;
}

int Scheduler::num_enabled_gpus() const {
  int n = 0;
  for (bool e : enabled_) {
    if (e) ++n;
  }
  return n;
}

int Scheduler::PickGpuFor(const ServingRequest& req, int exclude_gpu) const {
  int best = -1;
  int best_load = -1;
  std::int64_t best_hit = -1;
  for (int g = 0; g < num_gpus(); ++g) {
    if (g == exclude_gpu) continue;
    if (!enabled_[static_cast<std::size_t>(g)]) continue;
    const ExecutionBackend* r = backends_[static_cast<std::size_t>(g)];
    if (!r->CanAdmit(req)) continue;
    // Prefix affinity first: a backend whose shared-prefix cache already
    // holds this request's prefix turns prefill compute into page aliasing,
    // and steering tenant-mates together is also what *creates* such
    // backends. Then largest working set (load concentration for
    // scale-down); ties go to the highest GPU UUID (we use the GPU index
    // as the UUID ordering). Backends without a prefix cache report 0
    // everywhere, preserving the original routing exactly.
    std::int64_t hit = r->PrefixHitTokens(req);
    int load = r->working_set_size();
    if (hit > best_hit || (hit == best_hit && load > best_load) ||
        (hit == best_hit && load == best_load && g > best)) {
      best = g;
      best_load = load;
      best_hit = hit;
    }
  }
  return best;
}

void Scheduler::Enqueue(ServingRequest* req) {
  // FCFS by (arrival_time, id); a migrated request re-enters at its original
  // arrival position, preserving first-come-first-serve semantics.
  auto pos = std::upper_bound(
      queue_.begin(), queue_.end(), req,
      [](const ServingRequest* a, const ServingRequest* b) {
        if (a->arrival_time != b->arrival_time) {
          return a->arrival_time < b->arrival_time;
        }
        return a->id < b->id;
      });
  req->phase = RequestPhase::kQueued;
  queue_.insert(pos, req);
}

bool Scheduler::QueuedAhead(const ServingRequest& req) const {
  if (queue_.empty()) return false;
  const ServingRequest* head = queue_.front();
  return req.arrival_time > head->arrival_time ||
         (req.arrival_time == head->arrival_time && req.id >= head->id);
}

int Scheduler::Submit(ServingRequest* req, double now, int exclude_gpu) {
  PUNICA_CHECK(req != nullptr);
  // FCFS: a brand-new request may not jump over already-queued ones. A
  // migrating request arrived before everything still queued behind it, so
  // the arrival-order check naturally lets it re-enter directly.
  if (QueuedAhead(*req)) {
    Enqueue(req);
    return -1;
  }
  int gpu = PickGpuFor(*req, exclude_gpu);
  if (gpu < 0) {
    Enqueue(req);
    return -1;
  }
  backends_[static_cast<std::size_t>(gpu)]->Admit(req, now);
  return gpu;
}

std::vector<int> Scheduler::PumpQueue(double now) {
  std::vector<int> touched;
  while (!queue_.empty()) {
    ServingRequest* head = queue_.front();
    int gpu = PickGpuFor(*head, /*exclude_gpu=*/-1);
    if (gpu < 0) break;  // FCFS: never skip the head
    queue_.pop_front();
    backends_[static_cast<std::size_t>(gpu)]->Admit(head, now);
    touched.push_back(gpu);
  }
  return touched;
}

std::vector<int> Scheduler::MigrateForKvPressure(
    int gpu, double now, std::int64_t* migration_count) {
  ExecutionBackend* source = backends_.at(static_cast<std::size_t>(gpu));
  std::vector<int> touched;
  for (std::int64_t id : source->SelectEvictionVictims(now)) {
    ServingRequest* req = source->Find(id);
    PUNICA_CHECK(req != nullptr);
    // Evict (cancellation primitive): the KvCache is released here; the
    // destination rebuilds it by re-prefilling prompt + generated tokens.
    source->Cancel(id);
    ++req->migrations;
    if (migration_count != nullptr) ++*migration_count;
    int dest = Submit(req, now, /*exclude_gpu=*/gpu);
    if (dest >= 0) touched.push_back(dest);
  }
  return touched;
}

int Scheduler::ConsolidateOnce(double now, std::int64_t* migration_count) {
  // Donor: the most lightly loaded non-empty GPU. Receiver: the most loaded
  // GPU (highest UUID tiebreak) that can admit the donor's newest request
  // and is strictly busier — so moves always concentrate load.
  int donor = -1;
  int donor_load = 0;
  for (int g = 0; g < num_gpus(); ++g) {
    if (!enabled_[static_cast<std::size_t>(g)]) continue;
    int load = backends_[static_cast<std::size_t>(g)]->working_set_size();
    if (load == 0) continue;
    if (donor < 0 || load < donor_load ||
        (load == donor_load && g < donor)) {
      donor = g;
      donor_load = load;
    }
  }
  if (donor < 0) return -1;
  ServingRequest* req =
      backends_[static_cast<std::size_t>(donor)]->NewestRequest();
  PUNICA_CHECK(req != nullptr);

  int receiver = -1;
  int receiver_load = -1;
  for (int g = 0; g < num_gpus(); ++g) {
    if (g == donor) continue;
    if (!enabled_[static_cast<std::size_t>(g)]) continue;
    const ExecutionBackend* r = backends_[static_cast<std::size_t>(g)];
    if (!r->CanAdmit(*req)) continue;
    int load = r->working_set_size();
    if (load <= donor_load) continue;  // only consolidate upward
    if (load > receiver_load || (load == receiver_load && g > receiver)) {
      receiver = g;
      receiver_load = load;
    }
  }
  if (receiver < 0) return -1;

  backends_[static_cast<std::size_t>(donor)]->Cancel(req->id);
  ++req->migrations;
  if (migration_count != nullptr) ++*migration_count;
  backends_[static_cast<std::size_t>(receiver)]->Admit(req, now);
  return receiver;
}

bool Scheduler::Cancel(std::int64_t request_id) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if ((*it)->id == request_id) {
      (*it)->phase = RequestPhase::kCancelled;
      queue_.erase(it);
      return true;
    }
  }
  for (ExecutionBackend* r : backends_) {
    ServingRequest* req = r->Find(request_id);
    if (req != nullptr) {
      req->phase = RequestPhase::kCancelled;
      r->Cancel(request_id);
      return true;
    }
  }
  return false;
}

Scheduler::ScaleAdvice Scheduler::Advise() const {
  ScaleAdvice advice;
  bool any_light = false;
  for (int g = 0; g < num_gpus(); ++g) {
    if (!enabled_[static_cast<std::size_t>(g)]) continue;
    const ExecutionBackend* r = backends_[static_cast<std::size_t>(g)];
    int load = r->working_set_size();
    if (load == 0) advice.releasable_gpus.push_back(g);
    if (load < (r->max_batch_size() * 3) / 4) any_light = true;
  }
  advice.need_more_gpus = !any_light;
  return advice;
}

}  // namespace punica
