// Wall-clock multi-LoRA serving benchmark over the numeric Engine tier.
//
// `serve` runs one open-loop workload through the real serving stack —
// ServingLoop::RunThreaded → Scheduler → two EngineBackends over one shared
// LlamaModel (one backbone, sixteen adapters) — and streams one line per
// finished request to stdout as it finishes, so a process that aborts
// mid-run still leaves every finished request on record. Each backend is
// wrapped in ObservedBackend, a forwarding decorator owned by this file:
// untraced it reads the clock once per Step return (the TTFT/ITL stamps);
// traced it also writes a Chrome trace-event span for every backend call.
//
// `reference` prints the reference stream of each listed request, which
// every served stream must equal bit for bit.
//
// `replay` times the public kernel entry points (LlamaModel::Forward,
// LayerForward / TpLayerForward, BatchDecodeAttentionRanged /
// BatchPrefillAttentionRanged, SgmvShrink / SgmvExpand, GemmSetW) at step
// shapes recovered from a traced run, on a standalone PagedKvCache with a
// ComputeContext of the serving run's size.
//
// perfbench/run.py drives all three and turns their output into metrics.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sgmv.h"
#include "kvcache/kvcache.h"
#include "model/attention.h"
#include "model/layer.h"
#include "model/llama.h"
#include "model/tensor_parallel.h"
#include "runtime/engine.h"
#include "runtime/engine_backend.h"
#include "serving/arrival_queue.h"
#include "serving/serving_loop.h"
#include "sim/arrivals.h"
#include "tensor/gemm.h"
#include "tensor/simd.h"
#include "util/compute_context.h"
#include "util/rng.h"

namespace punica::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Fixed program set-up, identical for every workload.

LlamaConfig BenchModelConfig() {
  return {.name = "perfbench-256",
          .hidden_size = 256,
          .num_layers = 4,
          .num_heads = 4,
          .num_kv_heads = 2,
          .ffn_hidden = 704,
          .vocab_size = 4096};
}
constexpr std::uint64_t kWeightSeed = 20240601;
constexpr int kNumAdapters = 16;
constexpr int kLoraRank = 16;
constexpr int kNumEngines = 2;
// Pool threads including the loop thread; with the one generator thread at
// most three threads are busy, leaving a core of a 4-core host free.
constexpr int kPoolThreads = 2;
constexpr int kSetupReps = 3;
constexpr int kReferenceThreads = 4;
constexpr int kReplayMinReps = 2;
constexpr std::uint64_t kAdapterSeed = 7001;

EngineConfig ServingEngineConfig() {
  return {.max_batch_size = 16, .prefill_limit = 2, .max_step_tokens = 256};
}

struct Workload {
  const char* name;
  int tp;
  double rate_rps;
  int num_tenants;        ///< adapters requests draw from (tenant t → LoRA t)
  int system_prompt_len;  ///< per-tenant shared prefix (0 = none)
  int prompt_min, prompt_max;  ///< unique prompt (or suffix) tokens
  int out_min, out_max;
  std::int32_t kv_pages;  ///< per engine
  SloSpec slo;
};

// Why each workload exists is recorded in BENCHMARK.json; the parameters
// live here only.
const Workload kWorkloads[] = {
    {.name = "lora-decode",
     .tp = 1,
     .rate_rps = 8.0,
     .num_tenants = 16,
     .system_prompt_len = 0,
     .prompt_min = 32,
     .prompt_max = 96,
     .out_min = 16,
     .out_max = 64,
     .kv_pages = 512,
     .slo = {.ttft_target_s = 0.25, .itl_target_s = 0.05}},
    {.name = "prefix-tp2",
     .tp = 2,
     .rate_rps = 8.0,
     .num_tenants = 8,
     .system_prompt_len = 448,
     .prompt_min = 16,
     .prompt_max = 64,
     .out_min = 8,
     .out_max = 24,
     .kv_pages = 1024,
     .slo = {.ttft_target_s = 0.5, .itl_target_s = 0.05}},
    {.name = "kv-pressure",
     .tp = 1,
     .rate_rps = 5.0,
     .num_tenants = 16,
     .system_prompt_len = 0,
     .prompt_min = 32,
     .prompt_max = 96,
     .out_min = 96,
     .out_max = 256,
     .kv_pages = 96,
     .slo = {.ttft_target_s = 0.25, .itl_target_s = 0.05}},
};

const Workload* FindWorkload(const char* name) {
  for (const Workload& w : kWorkloads) {
    if (std::strcmp(w.name, name) == 0) return &w;
  }
  return nullptr;
}

std::int32_t RandomIn(Pcg32& rng, int lo, int hi) {
  return lo + static_cast<std::int32_t>(
                  rng.NextBounded(static_cast<std::uint32_t>(hi - lo + 1)));
}

/// Tenant t's system prompt: part of the tenant, not of the run, so it is
/// the same for every seed (and can be cached during set-up).
std::vector<std::int32_t> SystemPrompt(const Workload& w, int tenant) {
  Pcg32 rng(0x7E4A47 + static_cast<std::uint64_t>(tenant));
  std::vector<std::int32_t> prompt;
  for (int t = 0; t < w.system_prompt_len; ++t) {
    prompt.push_back(RandomIn(rng, 0, BenchModelConfig().vocab_size - 1));
  }
  return prompt;
}

/// The offered schedule: round(rate × seconds) requests whose arrivals are
/// a Poisson process conditioned on that count in [0, seconds) — the first
/// n of n+1 Poisson arrivals, rescaled so the (n+1)-th lands at `seconds`
/// (given the (n+1)-th arrival, the first n are uniform order statistics).
/// Fixing the count keeps the offered load of every seed equal, so seeds
/// differ in burstiness, not in volume. Prompts are random token ids after
/// the tenant's system prompt; priorities alternate 0/1. A pure function of
/// the seed.
std::vector<SubmitSpec> MakeSchedule(const Workload& w, std::uint64_t seed,
                                     double seconds) {
  const int vocab = BenchModelConfig().vocab_size;
  auto n = static_cast<std::size_t>(std::llround(w.rate_rps * seconds));
  std::vector<double> arrivals = PoissonArrivalsKeyed(w.rate_rps, n + 1, seed);
  const double scale = seconds / arrivals[n];
  Pcg32 rng(seed, 0x9E3779B97F4A7C15ULL);
  std::vector<SubmitSpec> specs;
  for (std::size_t i = 0; i < n; ++i) {
    int tenant = RandomIn(rng, 0, w.num_tenants - 1);
    std::vector<std::int32_t> prompt = SystemPrompt(w, tenant);
    int len = RandomIn(rng, w.prompt_min, w.prompt_max);
    for (int t = 0; t < len; ++t) prompt.push_back(RandomIn(rng, 0, vocab - 1));
    specs.push_back({.lora = tenant,
                     .prompt_tokens = std::move(prompt),
                     .max_new_tokens = RandomIn(rng, w.out_min, w.out_max),
                     .arrival_time = arrivals[i] * scale,
                     .priority = static_cast<std::int32_t>(i % 2)});
  }
  return specs;
}

/// Everything a serving run needs; members are destroyed in reverse order,
/// so backends and engines go before the model, and the model before the
/// pool it runs on.
struct Stack {
  std::unique_ptr<ComputeContext> ctx;
  std::unique_ptr<LlamaModel> model;
  std::vector<std::unique_ptr<Engine>> engines;
  std::vector<std::unique_ptr<EngineBackend>> backends;
};

/// Steps a closed batch of `specs` on a fresh engine until every request
/// finishes; returns each request's greedy stream.
std::vector<std::vector<std::int32_t>> RunClosedBatch(
    LlamaModel& model, const std::vector<SubmitSpec>& specs,
    EngineConfig config) {
  std::int64_t longest = 1;
  for (const SubmitSpec& s : specs) {
    longest = std::max<std::int64_t>(
        longest, static_cast<std::int64_t>(s.prompt_tokens.size()) +
                     s.max_new_tokens + 1);
  }
  KvCacheConfig probe = model.MakeKvConfig(1);
  std::int32_t pages = config.max_batch_size * probe.PagesNeeded(longest) + 8;
  Engine engine(&model, model.MakeKvConfig(pages), config);
  std::vector<RequestHandle> handles;
  handles.reserve(specs.size());
  while (handles.size() < specs.size() || engine.HasWork()) {
    while (handles.size() < specs.size() && engine.CanAdmit()) {
      handles.push_back(engine.AddRequest(specs[handles.size()]));
    }
    engine.Step();
  }
  std::vector<std::vector<std::int32_t>> out;
  out.reserve(handles.size());
  for (RequestHandle h : handles) out.push_back(*engine.Output(h));
  return out;
}

std::unique_ptr<Stack> BuildStack(const Workload& w) {
  auto s = std::make_unique<Stack>();
  s->ctx = std::make_unique<ComputeContext>(
      ComputeConfig{.num_threads = kPoolThreads});
  s->model = std::make_unique<LlamaModel>(BenchModelConfig(), kWeightSeed,
                                          s->ctx.get(), w.tp);
  for (int a = 0; a < kNumAdapters; ++a) {
    s->model->AddLora(a, kLoraRank, kAdapterSeed + static_cast<std::uint64_t>(a));
  }
  for (int g = 0; g < kNumEngines; ++g) {
    s->engines.push_back(std::make_unique<Engine>(
        s->model.get(), s->model->MakeKvConfig(w.kv_pages),
        ServingEngineConfig()));
    s->backends.push_back(
        std::make_unique<EngineBackend>(g, s->engines.back().get()));
  }
  // Warm-up on a throwaway engine: pool threads, model workspaces and the
  // kernels' first-touch pages, without touching the serving engines.
  Pcg32 rng(99);
  std::vector<SubmitSpec> warm;
  for (int i = 0; i < 4; ++i) {
    std::vector<std::int32_t> prompt;
    for (int t = 0; t < 48; ++t) {
      prompt.push_back(RandomIn(rng, 0, BenchModelConfig().vocab_size - 1));
    }
    warm.push_back({.lora = i, .prompt_tokens = prompt, .max_new_tokens = 8});
  }
  RunClosedBatch(*s->model, warm, ServingEngineConfig());
  // A long-running server has its tenants' system prompts cached, each on
  // the engine prefix-affinity routing keeps the tenant on; a cold cache is
  // a start-up transient, so it is paid here, in set-up.
  for (int t = 0; t < w.num_tenants && w.system_prompt_len > 0; ++t) {
    std::vector<std::int32_t> prompt = SystemPrompt(w, t);
    prompt.push_back(0);
    s->engines[static_cast<std::size_t>(t % kNumEngines)]->AddRequest(
        {.lora = t, .prompt_tokens = prompt, .max_new_tokens = 1});
  }
  for (auto& engine : s->engines) {
    while (engine->HasWork()) engine->Step();
  }
  return s;
}

// ---------------------------------------------------------------------------
// Observation: request records, trace spans, the forwarding decorator.

/// Chrome trace-event JSON ("JSON Array Format"), streamed: one event per
/// line, flushed after every Step so a run that aborts keeps everything up
/// to its last step (the format allows the closing bracket to be missing).
class TraceWriter {
 public:
  explicit TraceWriter(const char* path) : file_(std::fopen(path, "w")) {
    if (file_ == nullptr) {
      std::fprintf(stderr, "cannot open trace file %s\n", path);
      std::exit(2);
    }
    buf_ = "[\n";
  }
  ~TraceWriter() {
    buf_ +=
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"args\":{\"name\":\"serving\"}}\n]\n";
    Flush();
    std::fclose(file_);
  }
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// A complete span: times in seconds since the run's t0; `args` is the
  /// inside of a JSON object (may be empty).
  void Span(const char* name, int tid, double start, double end,
            const std::string& args) {
    char head[192];
    std::snprintf(head, sizeof head,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                  name, tid, start * 1e6, (end - start) * 1e6);
    buf_ += head;
    buf_ += args;
    buf_ += "}},\n";
  }
  void Counter(const char* name, int tid, double ts, const std::string& args) {
    char head[160];
    std::snprintf(head, sizeof head,
                  "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"args\":{",
                  name, tid, ts * 1e6);
    buf_ += head;
    buf_ += args;
    buf_ += "}},\n";
  }
  void Flush() {
    std::fwrite(buf_.data(), 1, buf_.size(), file_);
    std::fflush(file_);
    buf_.clear();
  }

 private:
  std::FILE* file_;
  std::string buf_;
};

// Both append one `"key":value` member to the inside of a JSON object.
void AppendIds(std::string* s, const char* key,
               const std::vector<std::int64_t>& ids) {
  if (!s->empty()) *s += ',';
  *s += '"';
  *s += key;
  *s += "\":[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) *s += ',';
    *s += std::to_string(ids[i]);
  }
  *s += ']';
}

void AppendField(std::string* s, const char* key, double v) {
  char b[80];
  std::snprintf(b, sizeof b, "%s\"%s\":%.10g", s->empty() ? "" : ",", key,
                v);
  *s += b;
}

struct RequestRecord {
  double due = 0.0;
  double first = -1.0;  ///< first token's Step return
  double last = -1.0;
  std::vector<std::int32_t> tokens;
  std::vector<double> gaps;
  bool decoding = false;  ///< emitted since its latest admission (traced)
};

/// State shared by both decorators. Only the serving-loop thread touches
/// it while the loop runs.
struct Observer {
  Clock::time_point t0;
  std::vector<RequestRecord> reqs;  ///< indexed by loop request id
  TraceWriter* trace = nullptr;     ///< null = untraced run
  const ServingLoop* loop = nullptr;

  double Now() const { return SecondsSince(t0); }

  /// The per-Step work both modes do: stamp emissions with the Step-return
  /// clock and report each finished request with its stream, so the
  /// record survives a later abort. Streams are checked outside the run.
  void OnStepReturn(const StepResult& r, double now) {
    for (const EmittedToken& e : r.emitted) {
      RequestRecord& rec = reqs[static_cast<std::size_t>(e.request_id)];
      rec.tokens.push_back(e.token);
      if (rec.first < 0.0) {
        rec.first = now;
      } else {
        rec.gaps.push_back(now - rec.last);
      }
      rec.last = now;
      rec.decoding = true;
    }
    for (std::int64_t id : r.finished) {
      const RequestRecord& rec = reqs[static_cast<std::size_t>(id)];
      char b[96];
      std::snprintf(b, sizeof b, "R %" PRId64 " %.4f %.4f |", id,
                    rec.due * 1e3, rec.first * 1e3);
      std::string line = b;
      for (std::int32_t t : rec.tokens) line += ' ' + std::to_string(t);
      line += " |";
      for (double g : rec.gaps) {
        std::snprintf(b, sizeof b, " %.4f", g * 1e3);
        line += b;
      }
      line += '\n';
      std::fputs(line.c_str(), stdout);
      std::fflush(stdout);
    }
  }
};

/// Pool and cache gauges of one engine plus the loop's counters, as a
/// trace counter event (cache counters are cumulative since the engine was
/// built).
void WriteEngineCounter(TraceWriter* trace, int tid, double ts,
                        const Engine& e, std::int64_t shed,
                        std::int64_t migrations) {
  PrefixCacheStats ps = e.prefix_cache_stats();
  std::string g;
  AppendField(&g, "free", e.kv_free_pages());
  AppendField(&g, "shared", e.kv_shared_pages());
  AppendField(&g, "pages", e.kv_config().num_pages);
  AppendField(&g, "hit_tokens", static_cast<double>(ps.hit_tokens));
  AppendField(&g, "prefill_tokens", static_cast<double>(ps.prefill_tokens));
  AppendField(&g, "evictions", static_cast<double>(ps.evictions));
  AppendField(&g, "shed", static_cast<double>(shed));
  AppendField(&g, "migrations", static_cast<double>(migrations));
  trace->Counter("engine", tid, ts, g);
}

/// Times `call` and records it as span `name` on track `tid`, with the
/// JSON members `args(result)` returns.
template <typename Call, typename Args>
auto RecordSpan(const Observer& obs, int tid, const char* name, Call&& call,
                Args&& args) {
  double start = obs.Now();
  auto result = call();
  double end = obs.Now();
  obs.trace->Span(name, tid, start, end, args(result));
  return result;
}

std::string Fields(
    std::initializer_list<std::pair<const char*, double>> fields) {
  std::string s;
  for (const auto& [key, value] : fields) AppendField(&s, key, value);
  return s;
}

/// Forwards every ExecutionBackend call to the wrapped EngineBackend. With
/// a trace attached it records a span per call carrying the backend id and
/// the request ids the call admitted, cancelled, queried or emitted for.
class ObservedBackend final : public ExecutionBackend {
 public:
  ObservedBackend(EngineBackend* inner, Observer* obs)
      : inner_(inner), obs_(obs) {}


  int backend_id() const override { return inner_->backend_id(); }
  int max_batch_size() const override { return inner_->max_batch_size(); }

  bool CanAdmit(const ServingRequest& req) const override {
    if (obs_->trace == nullptr) return inner_->CanAdmit(req);
    return RecordSpan(*obs_, id(), "CanAdmit", [&] { return inner_->CanAdmit(req); },
                  [&](bool ok) {
                    return Fields({{"req", static_cast<double>(req.id)},
                                   {"ok", ok ? 1.0 : 0.0}});
                  });
  }

  std::int64_t PrefixHitTokens(const ServingRequest& req) const override {
    if (obs_->trace == nullptr) return inner_->PrefixHitTokens(req);
    return RecordSpan(*obs_, id(), 
        "PrefixHitTokens", [&] { return inner_->PrefixHitTokens(req); },
        [&](std::int64_t hit) {
          return Fields({{"req", static_cast<double>(req.id)},
                         {"hit", static_cast<double>(hit)}});
        });
  }

  void Admit(ServingRequest* req, double now) override {
    if (obs_->trace == nullptr) {
      inner_->Admit(req, now);
      return;
    }
    RequestRecord& rec = obs_->reqs[static_cast<std::size_t>(req->id)];
    RecordSpan(*obs_, id(), "Admit", [&] { inner_->Admit(req, now); return 0; },
           [&](int) {
             return Fields({{"req", static_cast<double>(req->id)},
                            {"due", rec.due},
                            {"generated", static_cast<double>(req->generated)}});
           });
    members_.push_back(req);
    rec.decoding = false;
  }

  std::optional<RequestSnapshot> Cancel(std::int64_t request_id) override {
    if (obs_->trace == nullptr) return inner_->Cancel(request_id);
    auto snap = RecordSpan(*obs_, id(), 
        "Cancel", [&] { return inner_->Cancel(request_id); },
        [&](const auto&) {
          return Fields({{"req", static_cast<double>(request_id)}});
        });
    Forget(request_id);
    return snap;
  }

  bool HasRunnableWork(double now) const override {
    if (obs_->trace == nullptr) return inner_->HasRunnableWork(now);
    return RecordSpan(*obs_, id(), "HasRunnableWork",
                  [&] { return inner_->HasRunnableWork(now); },
                  [](bool r) { return Fields({{"r", r ? 1.0 : 0.0}}); });
  }

  bool HasAnyWork() const override {
    if (obs_->trace == nullptr) return inner_->HasAnyWork();
    return RecordSpan(*obs_, id(), "HasAnyWork", [&] { return inner_->HasAnyWork(); },
                  [](bool r) { return Fields({{"r", r ? 1.0 : 0.0}}); });
  }

  std::optional<double> NextReadyTime(double now) const override {
    if (obs_->trace == nullptr) return inner_->NextReadyTime(now);
    return RecordSpan(*obs_, id(), "NextReadyTime", [&] { return inner_->NextReadyTime(now); },
                  [](const auto&) { return std::string(); });
  }

  std::vector<std::int64_t> SelectEvictionVictims(double now) const override {
    if (obs_->trace == nullptr) return inner_->SelectEvictionVictims(now);
    return RecordSpan(*obs_, id(), "SelectEvictionVictims",
                  [&] { return inner_->SelectEvictionVictims(now); },
                  [](const std::vector<std::int64_t>& victims) {
                    std::string a;
                    AppendIds(&a, "req", victims);
                    return a;
                  });
  }

  StepResult Step(double now) override {
    if (obs_->trace == nullptr) {
      StepResult r = inner_->Step(now);
      obs_->OnStepReturn(r, obs_->Now());
      return r;
    }
    // Step shape as the request progress fields reveal it: every request
    // that has emitted since its admission decodes one row over
    // prompt + generated cached tokens.
    std::vector<std::int64_t> decode_kv;
    for (const ServingRequest* m : members_) {
      if (obs_->reqs[static_cast<std::size_t>(m->id)].decoding) {
        decode_kv.push_back(m->prompt_len + m->generated);
      }
    }
    double t = obs_->Now();
    StepResult r = inner_->Step(now);
    double end = obs_->Now();
    obs_->OnStepReturn(r, end);
    for (std::int64_t fid : r.finished) Forget(fid);

    std::string a;
    AppendField(&a, "batch", r.batch_size);
    AppendField(&a, "pf_req", r.prefill_requests);
    AppendField(&a, "pf_tok", r.prefill_tokens);
    AppendField(&a, "hit", r.prefix_hit_tokens);
    AppendField(&a, "partial", r.partial_prefills);
    AppendField(&a, "new", r.new_tokens);
    AppendField(&a, "seg", r.num_segments);
    AppendIds(&a, "dec_kv", decode_kv);
    std::vector<std::int64_t> emitted;
    for (const EmittedToken& e : r.emitted) emitted.push_back(e.request_id);
    AppendIds(&a, "req", emitted);
    AppendIds(&a, "fin", r.finished);
    obs_->trace->Span("Step", id(), t, end, a);

    WriteEngineCounter(obs_->trace, id(), end, inner_->engine(),
                       obs_->loop->metrics().shed, obs_->loop->migrations());
    obs_->trace->Flush();
    return r;
  }

  int working_set_size() const override { return inner_->working_set_size(); }
  ServingRequest* Find(std::int64_t request_id) const override {
    return inner_->Find(request_id);
  }
  ServingRequest* NewestRequest() const override {
    return inner_->NewestRequest();
  }

 private:
  int id() const { return inner_->backend_id(); }

  void Forget(std::int64_t request_id) {
    std::erase_if(members_, [request_id](const ServingRequest* m) {
      return m->id == request_id;
    });
  }

  EngineBackend* inner_;
  Observer* obs_;
  std::vector<const ServingRequest*> members_;  ///< traced runs only
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---------------------------------------------------------------------------
// serve

int Serve(const Workload& w, std::uint64_t seed, double seconds,
          const char* trace_path) {
  std::vector<SubmitSpec> specs = MakeSchedule(w, seed, seconds);

  // Set-up, repeated: the median is the reported figure; the last stack
  // serves.
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  for (int k = 0; k < kSetupReps; ++k) {
    stack.reset();
    auto t = Clock::now();
    stack = BuildStack(w);
    setups.push_back(SecondsSince(t));
  }
  std::printf(
      "P {\"setup_s\":%.6f,\"setup_runs\":[%.6f,%.6f,%.6f],"
      "\"pool_threads\":%d,\"generator_threads\":1,\"nproc\":%ld,"
      "\"simd\":\"%s\",\"tp\":%d,\"offered\":%zu,"
      "\"ttft_limit_ms\":%.1f,\"itl_limit_ms\":%.1f}\n",
      Median(setups), setups[0], setups[1], setups[2], kPoolThreads,
      sysconf(_SC_NPROCESSORS_ONLN), SimdLevelName(ActiveSimdLevel()), w.tp,
      specs.size(), w.slo.ttft_target_s * 1e3, w.slo.itl_target_s * 1e3);
  std::fflush(stdout);

  Observer obs;
  obs.reqs.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    obs.reqs[i].due = specs[i].arrival_time;
    obs.reqs[i].tokens.reserve(
        static_cast<std::size_t>(specs[i].max_new_tokens));
    obs.reqs[i].gaps.reserve(
        static_cast<std::size_t>(specs[i].max_new_tokens));
  }
  std::unique_ptr<TraceWriter> trace;
  if (trace_path != nullptr) {
    trace = std::make_unique<TraceWriter>(trace_path);
    obs.trace = trace.get();
    for (std::size_t g = 0; g < stack->engines.size(); ++g) {
      WriteEngineCounter(trace.get(), static_cast<int>(g), 0.0,
                         *stack->engines[g], 0, 0);
    }
  }
  std::vector<std::unique_ptr<ObservedBackend>> observed;
  std::vector<ExecutionBackend*> backends;
  for (auto& b : stack->backends) {
    observed.push_back(std::make_unique<ObservedBackend>(b.get(), &obs));
    backends.push_back(observed.back().get());
  }
  ServingLoopConfig cfg;
  cfg.slo = w.slo;
  cfg.record_streams = false;
  ServingLoop loop(backends, cfg);
  obs.loop = &loop;

  // Sized to the whole schedule so Push never blocks: the generator stays
  // open-loop whatever the engines do.
  ArrivalQueue queue(specs.size() + 1);
  std::vector<double> lag(specs.size(), 0.0);
  std::printf("W\n");
  std::fflush(stdout);
  obs.t0 = Clock::now();
  std::thread generator([&] {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      std::this_thread::sleep_until(
          obs.t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(specs[i].arrival_time)));
      lag[i] = obs.Now() - specs[i].arrival_time;
      queue.Push(specs[i]);
    }
    queue.Shutdown();
  });
  loop.RunThreaded(queue);
  double wall = obs.Now();
  generator.join();
  trace.reset();

  const ServingMetrics& m = loop.metrics();
  std::printf(
      "S {\"wall_s\":%.6f,\"loop_ttft_p50_ms\":%.6f,\"shed\":%" PRId64
      ",\"migrations\":%" PRId64 ",\"gen_lag_p99_ms\":%.6f}\n",
      wall, m.ttft.p50() * 1e3, m.shed, loop.migrations(),
      Quantile(lag, 0.99) * 1e3);
  std::fflush(stdout);
  return 0;
}

// ---------------------------------------------------------------------------
// reference

/// Prints the reference stream of each listed request of the schedule: a
/// closed batch on a fresh model of the workload's tp, with no chunking.
/// The determinism contract makes every served stream — whatever its batch,
/// chunking, prefix hits or migrations — bit-identical to it. (Across tp the
/// contract is numerical only: the all-reduce seams change the fp32
/// summation order, and a near-tie can flip a greedy token.)
int Reference(const Workload& w, std::uint64_t seed, double seconds,
              const char* ids_path) {
  std::vector<SubmitSpec> specs = MakeSchedule(w, seed, seconds);
  std::FILE* in = std::fopen(ids_path, "r");
  if (in == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", ids_path);
    return 2;
  }
  std::vector<std::int64_t> ids;
  std::vector<SubmitSpec> wanted;
  long long id = 0;
  while (std::fscanf(in, "%lld", &id) == 1) {
    if (id < 0 || static_cast<std::size_t>(id) >= specs.size()) {
      std::fprintf(stderr, "request id %lld not in the schedule\n", id);
      std::fclose(in);
      return 2;
    }
    ids.push_back(id);
    wanted.push_back(specs[static_cast<std::size_t>(id)]);
  }
  std::fclose(in);
  // Outside any timed window, so it may use the whole host.
  ComputeContext ctx(ComputeConfig{.num_threads = kReferenceThreads});
  LlamaModel model(BenchModelConfig(), kWeightSeed, &ctx, w.tp);
  for (int a = 0; a < kNumAdapters; ++a) {
    model.AddLora(a, kLoraRank, kAdapterSeed + static_cast<std::uint64_t>(a));
  }
  std::vector<std::vector<std::int32_t>> streams = RunClosedBatch(
      model, wanted, {.max_batch_size = 32, .prefill_limit = 4});
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::string line = "F " + std::to_string(ids[i]);
    for (std::int32_t t : streams[i]) line += ' ' + std::to_string(t);
    line += '\n';
    std::fputs(line.c_str(), stdout);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// replay

/// One bucketed step shape: decode rows over a common KV length, plus
/// prefill chunks of a common length and offset.
struct Shape {
  int decode_rows = 0;
  std::int64_t decode_kv = 1;
  int prefills = 0;
  std::int64_t chunk = 0;
  std::int64_t offset = 0;
  int segments = 1;
};

/// Runs `fn(rank, ctx)` for each TP rank the way the model does:
/// concurrently on the rank worker groups at tp > 1.
template <typename Fn>
void ForEachRank(const LlamaModel& model, Fn&& fn) {
  if (model.tp() == 1) {
    fn(0, model.context());
    return;
  }
  model.context().RunGroupTasks(model.tp(), [&](int r) {
    fn(r, *model.rank_context(r));
  });
}

/// Median of at least `min_reps` timed calls after one warm call, repeated
/// until 20 ms have been timed (short shapes get more samples), at most 50.
template <typename Fn>
double TimeMedianUs(int min_reps, Fn&& fn) {
  fn();
  std::vector<double> t;
  double total_us = 0.0;
  while (static_cast<int>(t.size()) < min_reps ||
         (total_us < 20e3 && t.size() < 50)) {
    auto s = Clock::now();
    fn();
    t.push_back(SecondsSince(s) * 1e6);
    total_us += t.back();
  }
  return Median(t);
}

int Replay(const Workload& w, const char* shapes_path) {
  std::unique_ptr<Stack> stack = BuildStack(w);
  LlamaModel& model = *stack->model;
  const LlamaConfig config = model.config();
  const int tp = model.tp();
  const int h = config.hidden_size;
  const int layers = config.num_layers;

  // Layer and head weights of the model's shapes and dtype (the model's own
  // are private); the adapters are the model's registered ones.
  LayerWeights layer = LayerWeights::Random(config, kWeightSeed + 1);
  TpShardedLayer tp_layer;
  if (tp > 1) tp_layer = ShardLayer(config, layer, tp);
  Tensor<f16> head_f16({h, config.vocab_size});
  Pcg32 wrng(5);
  for (auto& v : head_f16.data()) v = f16(wrng.NextFloat(-0.05f, 0.05f));
  WeightMatrix lm_head =
      WeightMatrix::FromF16(std::move(head_f16), config.weight_dtype);

  std::FILE* in = std::fopen(shapes_path, "r");
  if (in == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", shapes_path);
    return 2;
  }
  Shape s;
  long long kv = 0, chunk = 0, offset = 0;
  while (std::fscanf(in, "%d %lld %d %lld %lld %d", &s.decode_rows, &kv,
                     &s.prefills, &chunk, &offset, &s.segments) == 6) {
    s.decode_kv = std::max<long long>(kv, 1);
    s.chunk = chunk;
    s.offset = offset;
    const int rows =
        s.decode_rows + s.prefills * static_cast<int>(std::max<long long>(chunk, 0));
    if (rows <= 0) continue;

    // A standalone cache holding the shape's sequences.
    KvCacheConfig probe = model.MakeKvConfig(1);
    std::int32_t pages =
        s.decode_rows * probe.PagesNeeded(s.decode_kv) +
        s.prefills * probe.PagesNeeded(s.offset + s.chunk) + 4;
    PagedKvCache kvc(model.MakeKvConfig(pages));
    std::vector<BatchEntry> entries;
    std::vector<SeqId> decode_seqs;
    int lora = 0;
    for (int p = 0; p < s.prefills; ++p) {
      SeqId seq = kvc.CreateSequence();
      kvc.Extend(seq, s.offset + s.chunk);
      entries.push_back({.seq = seq,
                         .lora = lora++ % kNumAdapters,
                         .num_tokens = static_cast<std::int32_t>(s.chunk),
                         .pos_offset = s.offset,
                         .is_prefill = true});
    }
    int decode_loras =
        std::clamp(s.segments - s.prefills, 1, std::max(1, s.decode_rows));
    for (int d = 0; d < s.decode_rows; ++d) {
      SeqId seq = kvc.CreateSequence();
      kvc.Extend(seq, s.decode_kv);
      decode_seqs.push_back(seq);
      entries.push_back(
          {.seq = seq,
           .lora = (lora + d * decode_loras / s.decode_rows) % kNumAdapters,
           .num_tokens = 1,
           .pos_offset = s.decode_kv - 1});
    }
    ModelBatch batch = ModelBatch::Build(entries);
    std::vector<std::int32_t> tokens(static_cast<std::size_t>(rows));
    for (auto& t : tokens) t = RandomIn(wrng, 0, config.vocab_size - 1);

    double forward_us = TimeMedianUs(kReplayMinReps, [&] {
      Tensor<float> logits = model.Forward(batch, tokens, kvc);
      (void)logits;
    });

    // Transformer layers alone, through the public layer entry points.
    std::vector<float> x(static_cast<std::size_t>(rows) * h);
    for (auto& v : x) v = wrng.NextFloat(-1.0f, 1.0f);
    std::vector<float> x_work = x;
    std::vector<const LoraModelWeights*> seg_lora;
    std::vector<const TpShardedLora*> seg_shards;
    for (LoraId id : batch.segments.lora_ids) {
      seg_lora.push_back(model.GetLora(id));
      seg_shards.push_back(model.GetLoraShards(id));
    }
    LayerWorkspace lws;
    TpWorkspace tws;
    std::vector<const ComputeContext*> rank_ctxs;
    for (int r = 0; r < tp && tp > 1; ++r) {
      rank_ctxs.push_back(model.rank_context(r));
    }
    double layer_us = TimeMedianUs(kReplayMinReps, [&] {
      x_work = x;
      for (int l = 0; l < layers; ++l) {
        if (tp == 1) {
          lws.Resize(config, rows, kLoraRank);
          LayerForward(config, layer, seg_lora, batch, l, kvc, x_work, lws,
                       model.context());
        } else {
          tws.Resize(config, tp, rows, kLoraRank);
          TpLayerForward(config, tp_layer, batch, l, kvc, x_work, tws,
                         model.context(), rank_ctxs, seg_shards);
        }
      }
    });

    // Attention alone (rank-local heads at tp > 1).
    const int heads_pr = config.num_heads / tp;
    const int hd = config.head_dim();
    std::vector<float> q(static_cast<std::size_t>(rows) * h);
    for (auto& v : q) v = wrng.NextFloat(-1.0f, 1.0f);
    std::vector<float> att_out(q.size());
    std::vector<std::vector<float>> scratch(static_cast<std::size_t>(tp));
    double attn_decode_us = 0.0;
    if (s.decode_rows > 0) {
      attn_decode_us = TimeMedianUs(kReplayMinReps, [&] {
        for (int l = 0; l < layers; ++l) {
          ForEachRank(model, [&](int r, const ComputeContext& ctx) {
            auto n = static_cast<std::size_t>(s.decode_rows) *
                     static_cast<std::size_t>(heads_pr * hd);
            auto off = static_cast<std::size_t>(r) * n;
            BatchDecodeAttentionRanged(
                config, kvc, decode_seqs, l,
                std::span<const float>(q).subspan(off, n),
                std::span<float>(att_out).subspan(off, n), r * heads_pr,
                (r + 1) * heads_pr, ctx,
                &scratch[static_cast<std::size_t>(r)]);
          });
        }
      });
    }
    double attn_prefill_us = 0.0;
    if (s.prefills > 0 && s.chunk > 0) {
      attn_prefill_us = TimeMedianUs(kReplayMinReps, [&] {
        for (int l = 0; l < layers; ++l) {
          for (int p = 0; p < s.prefills; ++p) {
            ForEachRank(model, [&](int r, const ComputeContext& ctx) {
              auto n = static_cast<std::size_t>(s.chunk) *
                       static_cast<std::size_t>(heads_pr * hd);
              auto off = static_cast<std::size_t>(r) * n;
              BatchPrefillAttentionRanged(
                  config, kvc, entries[static_cast<std::size_t>(p)].seq, l,
                  s.offset, std::span<const float>(q).subspan(off, n),
                  std::span<float>(att_out).subspan(off, n), r * heads_pr,
                  (r + 1) * heads_pr, ctx,
                  &scratch[static_cast<std::size_t>(r)]);
            });
          }
        }
      });
    }

    // SGMV shrink + expand on all seven projections of every layer.
    const std::vector<std::int32_t>& seg = batch.segments.offsets;
    std::vector<float> lora_x(static_cast<std::size_t>(rows) *
                              std::max(h, config.ffn_hidden));
    for (auto& v : lora_x) v = wrng.NextFloat(-1.0f, 1.0f);
    std::vector<std::vector<float>> lora_v(
        static_cast<std::size_t>(tp),
        std::vector<float>(static_cast<std::size_t>(rows) * kLoraRank));
    std::vector<std::vector<float>> lora_y(
        static_cast<std::size_t>(tp),
        std::vector<float>(static_cast<std::size_t>(rows) *
                           std::max(h, config.ffn_hidden)));
    std::vector<std::vector<float>> shrink_scratch(
        static_cast<std::size_t>(tp),
        std::vector<float>(static_cast<std::size_t>(rows) * kLoraRank *
                           kMaxSplitKPartitions));
    double sgmv_bytes = 0.0;
    double sgmv_us = TimeMedianUs(kReplayMinReps, [&] {
      sgmv_bytes = 0.0;
      for (int l = 0; l < layers; ++l) {
        for (int p = 0; p < kNumProj; ++p) {
          ForEachRank(model, [&](int r, const ComputeContext& ctx) {
            std::vector<const f16*> a_ptrs, b_ptrs;
            int h_in = 0, h_out = 0;
            for (LoraId id : batch.segments.lora_ids) {
              const LoraAB& ab =
                  tp == 1 ? model.GetLora(id)->layers[static_cast<std::size_t>(l)]
                                .proj[p]
                          : model.GetLoraShards(id)
                                ->ranks[static_cast<std::size_t>(r)]
                                .layers[static_cast<std::size_t>(l)]
                                .proj[p];
              a_ptrs.push_back(ab.a.raw());
              b_ptrs.push_back(ab.b.raw());
              h_in = static_cast<int>(ab.a.dim(0));
              h_out = static_cast<int>(ab.b.dim(1));
            }
            auto ri = static_cast<std::size_t>(r);
            SgmvShrink({.y = lora_v[ri],
                        .x = std::span<const float>(lora_x).first(
                            static_cast<std::size_t>(rows) * h_in),
                        .weights = a_ptrs,
                        .seg = seg,
                        .h_in = h_in,
                        .h_out = kLoraRank},
                       ctx, shrink_scratch[ri]);
            SgmvExpand({.y = std::span<float>(lora_y[ri]).first(
                            static_cast<std::size_t>(rows) * h_out),
                        .x = lora_v[ri],
                        .weights = b_ptrs,
                        .seg = seg,
                        .h_in = kLoraRank,
                        .h_out = h_out},
                       ctx);
            if (r == 0) {
              // Bytes per rank × ranks: every rank streams its own shard.
              sgmv_bytes += tp * (SgmvCostOf(seg, h_in, kLoraRank).io_bytes +
                                  SgmvCostOf(seg, kLoraRank, h_out).io_bytes);
            }
          });
        }
      }
    });

    // Dense projections (rank shards at tp > 1) plus the per-row LM head.
    double dense_flops = 0.0;
    double weight_bytes = 0.0;
    const int emit_rows = s.decode_rows + s.prefills;
    std::vector<float> logits(static_cast<std::size_t>(config.vocab_size));
    double dense_us = TimeMedianUs(kReplayMinReps, [&] {
      dense_flops = 0.0;
      weight_bytes = 0.0;
      for (int l = 0; l < layers; ++l) {
        for (int p = 0; p < kNumProj; ++p) {
          ForEachRank(model, [&](int r, const ComputeContext& ctx) {
            const WeightMatrix& wm =
                tp == 1 ? layer.proj[p]
                        : tp_layer.ranks[static_cast<std::size_t>(r)].proj[p];
            auto k = static_cast<int>(wm.rows());
            auto n = static_cast<int>(wm.cols());
            auto ri = static_cast<std::size_t>(r);
            GemmSetW(std::span<const float>(lora_x).first(
                         static_cast<std::size_t>(rows) * k),
                     wm,
                     std::span<float>(lora_y[ri]).first(
                         static_cast<std::size_t>(rows) * n),
                     rows, k, n, ctx);
            if (r == 0) {
              dense_flops += 2.0 * rows * k * n * tp;
              weight_bytes += static_cast<double>(wm.byte_size()) * tp;
            }
          });
        }
      }
      for (int e = 0; e < emit_rows; ++e) {
        GemmSetW(std::span<const float>(lora_x).first(
                     static_cast<std::size_t>(h)),
                 lm_head, logits, 1, h, config.vocab_size, model.context());
        dense_flops += 2.0 * h * config.vocab_size;
        weight_bytes += static_cast<double>(lm_head.byte_size());
      }
    });

    std::printf(
        "B %d %" PRId64 " %d %" PRId64 " %" PRId64
        " %d %.3f %.3f %.3f %.3f %.3f %.0f %.3f %.0f %.0f\n",
        s.decode_rows, static_cast<std::int64_t>(kv), s.prefills, s.chunk,
        s.offset,
        s.segments, forward_us, layer_us, attn_decode_us, attn_prefill_us,
        sgmv_us, sgmv_bytes, dense_us, dense_flops, weight_bytes);
    std::fflush(stdout);
  }
  std::fclose(in);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: serving_bench serve WORKLOAD SEED SECONDS [TRACE]\n"
               "       serving_bench reference WORKLOAD SEED SECONDS IDS\n"
               "       serving_bench replay WORKLOAD SHAPES\n");
  return 2;
}

}  // namespace
}  // namespace punica::perfbench

int main(int argc, char** argv) {
  using namespace punica::perfbench;
  if (argc < 4) return Usage();
  const Workload* w = FindWorkload(argv[2]);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", argv[2]);
    return 2;
  }
  if (std::strcmp(argv[1], "serve") == 0 && argc >= 5) {
    return Serve(*w, std::strtoull(argv[3], nullptr, 10),
                 std::strtod(argv[4], nullptr), argc >= 6 ? argv[5] : nullptr);
  }
  if (std::strcmp(argv[1], "reference") == 0 && argc >= 6) {
    return Reference(*w, std::strtoull(argv[3], nullptr, 10),
                     std::strtod(argv[4], nullptr), argv[5]);
  }
  if (std::strcmp(argv[1], "replay") == 0) {
    return Replay(*w, argv[3]);
  }
  return Usage();
}
