// Llama-architecture model configurations.
//
// The paper evaluates LoRA fine-tunes of Llama-2 7B/13B/70B; these configs
// drive both the analytical GPU cost model (at paper scale) and the real
// CPU numeric model (at tiny scale for correctness tests and examples).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "tensor/quant.h"

namespace punica {

struct LlamaConfig {
  std::string name;
  int hidden_size = 0;     ///< model dimension h
  int num_layers = 0;      ///< L
  int num_heads = 0;       ///< query heads
  int num_kv_heads = 0;    ///< KV heads (GQA when < num_heads)
  int ffn_hidden = 0;      ///< MLP intermediate size (SwiGLU)
  int vocab_size = 0;
  float rope_theta = 10000.0f;
  float rms_eps = 1e-5f;
  /// Storage format of the dense projections + LM head (tensor/quant.h).
  /// Embeddings, norms and LoRA adapters stay f16. Weights are quantized
  /// deterministically from the same seeded f16 master weights, so two
  /// models differing only in dtype share the underlying parameters.
  WeightDtype weight_dtype = WeightDtype::kF16;

  int head_dim() const { return hidden_size / num_heads; }
  int kv_dim() const { return num_kv_heads * head_dim(); }

  /// Dense-projection parameter count for one transformer layer:
  /// q,o: h·h; k,v: h·kv; gate,up: h·ffn; down: ffn·h.
  std::int64_t params_per_layer() const;

  /// Whole-model parameters (layers + embedding + lm head).
  std::int64_t total_params() const;

  /// Stored bytes of one layer's dense projections under weight_dtype
  /// (2 B/param at f16; 34/64ths of that at q8_0, 18/64ths at q4_0) — the
  /// term every capacity/latency account downstream scales by.
  std::int64_t layer_weight_bytes() const {
    return WeightBytesFor(params_per_layer(), weight_dtype);
  }
  /// Whole-model stored bytes: quantized layers + LM head, f16 embedding.
  /// The head counts as its own table, untied: this prices the simulated
  /// GPU models (cost model, memory planner). The numeric LlamaModel stores
  /// the shift-tied table once (LlamaModel::weight_bytes).
  std::int64_t total_weight_bytes() const {
    const std::int64_t embed =
        static_cast<std::int64_t>(vocab_size) * hidden_size;
    return WeightBytesFor(params_per_layer() * num_layers + embed,
                          weight_dtype) +
           embed * 2;
  }

  /// LoRA adapter parameters for one layer at rank r: each of the 7
  /// projections gets A [h_in, r] + B [r, h_out].
  std::int64_t lora_params_per_layer(int rank) const;
  std::int64_t lora_total_params(int rank) const {
    return lora_params_per_layer(rank) * num_layers;
  }
  std::int64_t lora_total_bytes(int rank) const {
    return lora_total_params(rank) * 2;
  }

  /// KvCache bytes per token across all layers (2 · L · kv_dim fp16).
  std::int64_t kv_bytes_per_token() const {
    return static_cast<std::int64_t>(2) * num_layers * kv_dim() * 2;
  }
};

/// The seven dense projections LoRA is applied to (paper §2.2: "all dense
/// projections"; §6: segment indices reused 7·L times).
enum class Proj : int {
  kQ = 0,
  kK,
  kV,
  kO,
  kGate,
  kUp,
  kDown,
};
inline constexpr int kNumProj = 7;

/// Input/output dims of a projection under a config.
struct ProjShape {
  int h_in = 0;
  int h_out = 0;
};
ProjShape ShapeOf(const LlamaConfig& config, Proj proj);

LlamaConfig Llama7B();
LlamaConfig Llama13B();
LlamaConfig Llama70B();

/// A Llama-shaped model tiny enough for exact CPU execution in tests and
/// examples (hidden 64, 2 layers, GQA 4:2, vocab 256).
LlamaConfig TinyLlama();

/// Slightly larger tiny config with more layers for end-to-end tests.
LlamaConfig TinyLlama4L();

}  // namespace punica
