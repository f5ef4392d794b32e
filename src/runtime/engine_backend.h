// EngineBackend: the numeric tier of the ExecutionBackend interface.
//
// Wraps an Engine (real tiny-Llama execution) so Scheduler, ClusterDriver,
// migration and consolidation drive real text generation through exactly the
// code paths the simulated tier uses. The adapter owns the translation
// between serving-tier request ids (issued by frontends) and the engine's
// internal ids, keeps the caller-owned ServingRequest progress fields in
// sync (generated tokens, first-token/finish times, phase), and maps the
// engine's page-granular KvCache pressure onto the victim query.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "runtime/backend.h"
#include "runtime/engine.h"

namespace punica {

struct EngineBackendConfig {
  /// Virtual-time cost per batched invocation. The engine itself is not
  /// time-aware; the cluster driver schedules step completions this far
  /// into the future, which keeps event ordering deterministic.
  double step_latency_s = 1e-3;
};

class EngineBackend : public ExecutionBackend {
 public:
  /// Borrows the engine (one per "GPU"; the model behind it is shared).
  EngineBackend(int backend_id, Engine* engine,
                EngineBackendConfig config = {});

  int backend_id() const override { return backend_id_; }
  int max_batch_size() const override;

  /// Engine::Serves: real, in-vocab prompt tokens and a registered adapter.
  bool Serves(const SubmitSpec& spec) const override {
    return engine_->Serves(spec);
  }
  bool CanAdmit(const ServingRequest& req) const override;
  std::int64_t PrefixHitTokens(const ServingRequest& req) const override;
  void Admit(ServingRequest* req, double now) override;
  std::optional<RequestSnapshot> Cancel(std::int64_t request_id) override;

  bool HasRunnableWork(double now) const override;
  bool HasAnyWork() const override;
  std::optional<double> NextReadyTime(double now) const override;
  std::vector<std::int64_t> SelectEvictionVictims(double now) const override;
  StepResult Step(double now) override;

  int working_set_size() const override;
  ServingRequest* Find(std::int64_t request_id) const override;
  ServingRequest* NewestRequest() const override;

  Engine& engine() { return *engine_; }

  /// The compute substrate this backend steps on (the engine's model's
  /// context — shared by every backend over the same backbone).
  const ComputeContext& context() const { return engine_->context(); }

  /// The engine's tensor-parallel degree (1 = single-GPU execution).
  int tp() const { return engine_->tp(); }

 private:
  struct Slot {
    ServingRequest* req = nullptr;
    std::int64_t engine_id = -1;
  };

  int backend_id_;
  Engine* engine_;
  EngineBackendConfig config_;
  std::map<std::int64_t, Slot> slots_;  ///< by serving request id
  /// Engine id → serving request id. The engine issues ids in admission
  /// order, so this map iterates oldest to newest admission.
  std::map<std::int64_t, std::int64_t> by_engine_id_;
};

}  // namespace punica
