#include "runtime/engine_backend.h"

#include "util/check.h"

namespace punica {

EngineBackend::EngineBackend(int backend_id, Engine* engine,
                             EngineBackendConfig config)
    : backend_id_(backend_id), engine_(engine), config_(config) {
  PUNICA_CHECK(engine_ != nullptr);
  PUNICA_CHECK(config_.step_latency_s > 0.0);
}

int EngineBackend::max_batch_size() const {
  return engine_->config().max_batch_size;
}

bool EngineBackend::CanAdmit(const ServingRequest& req) const {
  if (!engine_->CanAdmit()) return false;
  // Page-granular headroom for the re-prefill chunk plus one decode slot,
  // net of any cached pages the admission would alias; reclaimable cached
  // pages count as headroom (allocation reclaims them inside Step), except
  // the hit's own — its fork revives them.
  return engine_->CanAdmitPages(req.lora_id, req.prompt_tokens,
                                req.generated_tokens);
}

std::int64_t EngineBackend::PrefixHitTokens(const ServingRequest& req) const {
  return engine_->PrefixHitTokens(req.lora_id, req.prompt_tokens,
                                  req.generated_tokens);
}

void EngineBackend::Admit(ServingRequest* req, double now) {
  PUNICA_CHECK(req != nullptr);
  if (req->admit_time < 0.0) req->admit_time = now;
  PUNICA_CHECK_MSG(req->has_real_tokens(),
                   "the numeric tier needs real prompt tokens; "
                   "set SubmitSpec::prompt_tokens");
  PUNICA_CHECK_MSG(!slots_.contains(req->id),
                   "request already on this backend");
  RequestHandle engine_handle;
  if (req->generated > 0) {
    // Migration re-add: rebuild the KvCache from prompt + generated.
    PUNICA_CHECK_MSG(
        static_cast<std::int32_t>(req->generated_tokens.size()) ==
            req->generated,
        "numeric progress out of sync with the generated-token record");
    // The snapshot carries the stop token resolved at first admission;
    // AddMigrated asserts the destination agrees rather than re-resolving
    // (which would silently change the stop condition).
    engine_handle = engine_->AddMigrated(RequestSnapshot::FromRequest(*req));
  } else {
    // First admission: resolve the effective stop token (per-request or
    // engine-wide default) and pin it on the request, so migration
    // preserves it verbatim.
    req->eos_token = engine_->ResolveEos(req->eos_token);
    SubmitSpec spec;
    spec.lora = req->lora_id;
    spec.prompt_tokens = req->prompt_tokens;
    spec.max_new_tokens = req->output_len;
    spec.arrival_time = req->arrival_time;
    spec.eos_token = req->eos_token;
    engine_handle = engine_->AddRequest(spec);
  }
  PUNICA_CHECK_MSG(engine_handle.valid(),
                   "the engine refused an admitted request; submit it "
                   "through a door that checks Serves");
  Slot slot;
  slot.req = req;
  slot.engine_id = engine_handle.id();
  by_engine_id_[slot.engine_id] = req->id;
  slots_.emplace(req->id, slot);
  req->phase = RequestPhase::kAssigned;
}

std::optional<RequestSnapshot> EngineBackend::Cancel(
    std::int64_t request_id) {
  auto it = slots_.find(request_id);
  if (it == slots_.end()) return std::nullopt;
  ServingRequest* req = it->second.req;
  auto snap = engine_->Cancel(it->second.engine_id);
  PUNICA_CHECK_MSG(snap.has_value(),
                   "backend slot had no engine-side request");
  engine_->Release(it->second.engine_id);  // the snapshot carries the tokens
  // Sync the caller-owned request: generated tokens are the migration state.
  req->generated_tokens = snap->generated;
  req->generated = static_cast<std::int32_t>(snap->generated.size());
  by_engine_id_.erase(it->second.engine_id);
  slots_.erase(it);
  snap->request_id = request_id;
  snap->prompt_len = req->prompt_len;
  snap->generated_len = req->generated;
  return snap;
}

bool EngineBackend::HasRunnableWork(double now) const {
  (void)now;  // no adapter-load latency on the numeric tier
  return engine_->HasWork();
}

bool EngineBackend::HasAnyWork() const { return engine_->HasWork(); }

std::optional<double> EngineBackend::NextReadyTime(double now) const {
  (void)now;
  return std::nullopt;
}

std::vector<std::int64_t> EngineBackend::SelectEvictionVictims(
    double now) const {
  (void)now;
  std::vector<std::int64_t> victims;
  for (std::int64_t engine_id : engine_->SelectEvictionVictims()) {
    victims.push_back(by_engine_id_.at(engine_id));
  }
  return victims;
}

StepResult EngineBackend::Step(double now) {
  StepResult result = engine_->Step();
  result.latency = result.batch_size > 0 ? config_.step_latency_s : 0.0;
  double completion = now + result.latency;
  // Translate engine-local ids to serving-tier ids and sync the
  // caller-owned request state.
  for (auto& e : result.emitted) {
    std::int64_t request_id = by_engine_id_.at(e.request_id);
    e.request_id = request_id;
    ServingRequest* req = slots_.at(request_id).req;
    req->generated_tokens.push_back(e.token);
    req->generated += 1;
    if (req->first_token_time < 0.0) req->first_token_time = completion;
  }
  for (auto& id : result.finished) {
    std::int64_t request_id = by_engine_id_.at(id);
    id = request_id;
    auto it = slots_.find(request_id);
    ServingRequest* req = it->second.req;
    if (req->generated < req->output_len) req->stopped_early = true;  // EOS
    req->phase = RequestPhase::kFinished;
    req->finish_time = completion;
    // The request's tokens now live in `req`; drop the engine's copy.
    engine_->Release(it->second.engine_id);
    by_engine_id_.erase(it->second.engine_id);
    slots_.erase(it);
  }
  return result;
}

int EngineBackend::working_set_size() const {
  return static_cast<int>(slots_.size());
}

ServingRequest* EngineBackend::Find(std::int64_t request_id) const {
  auto it = slots_.find(request_id);
  return it == slots_.end() ? nullptr : it->second.req;
}

ServingRequest* EngineBackend::NewestRequest() const {
  // The engine's own admission order — the newest-first pick its victim
  // query makes.
  if (by_engine_id_.empty()) return nullptr;
  return slots_.at(by_engine_id_.rbegin()->second).req;
}

}  // namespace punica
