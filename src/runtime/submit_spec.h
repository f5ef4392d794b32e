// The unified request-submission surface shared by both serving tiers.
//
// A SubmitSpec describes *what* to generate: which LoRA model, the prompt
// (real token ids on the numeric tier, or just a synthetic length on the
// simulated tier), how many tokens to produce, and an optional early-stop
// token. Frontend::Submit and Engine::AddRequest both take a SubmitSpec and
// return a RequestHandle, so callers are written once and run against either
// tier.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/segment.h"

namespace punica {

struct SubmitSpec {
  LoraId lora = -1;  ///< -1 = backbone only (no adapter)

  /// Real prompt token ids (numeric tier). When empty, `prompt_len` below
  /// describes a synthetic prompt (simulated tier).
  std::vector<std::int32_t> prompt_tokens;
  /// Synthetic prompt length; ignored when `prompt_tokens` is non-empty.
  std::int32_t prompt_len = 0;

  std::int32_t max_new_tokens = 0;
  double arrival_time = 0.0;
  /// SLO class (higher = more important). Only the open-loop serving front
  /// door acts on it — backends treat all admitted requests the same.
  std::int32_t priority = 0;

  /// Shared-prefix annotation for the simulated tier: the first
  /// `shared_prefix_len` prompt tokens are a per-tenant system prompt
  /// identified by `prefix_group` (e.g. the LoRA/tenant id). The numeric
  /// tier ignores these — its page keys match real token ids.
  std::int32_t shared_prefix_len = 0;
  std::int64_t prefix_group = -1;  ///< -1 = no shared prefix

  /// Optional stop condition: generation ends early when this token is
  /// emitted (-1 = length-only stopping). Only meaningful on the numeric
  /// tier; must agree with the engine-wide EngineConfig::eos_token when
  /// both are set.
  std::int32_t eos_token = -1;

  std::int32_t EffectivePromptLen() const {
    return prompt_tokens.empty()
               ? prompt_len
               : static_cast<std::int32_t>(prompt_tokens.size());
  }

  /// False for a spec no backend can serve — nothing to prefill from, or
  /// nothing to generate. Every entry point refuses those rather than
  /// aborting.
  bool Servable() const {
    return EffectivePromptLen() >= 1 && max_new_tokens >= 1;
  }
};

/// Lightweight, type-safe wrapper around the raw int64 request id that the
/// serving tier hands back on submission. Invalid handles (default
/// constructed) compare false.
class RequestHandle {
 public:
  RequestHandle() = default;
  explicit RequestHandle(std::int64_t id) : id_(id) {}

  std::int64_t id() const { return id_; }
  bool valid() const { return id_ >= 0; }
  explicit operator bool() const { return valid(); }

  friend bool operator==(RequestHandle a, RequestHandle b) {
    return a.id_ == b.id_;
  }
  friend bool operator!=(RequestHandle a, RequestHandle b) {
    return !(a == b);
  }
  friend bool operator<(RequestHandle a, RequestHandle b) {
    return a.id_ < b.id_;
  }

 private:
  std::int64_t id_ = -1;
};

}  // namespace punica
