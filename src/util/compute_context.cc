#include "util/compute_context.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <thread>

#include "util/check.h"

namespace punica {
namespace {

// The integer in environment variable `name`; nullopt when it is unset or
// empty. A value that is not a whole decimal integer ("4x", "four") also
// reads as unset, after one stderr line naming it and `fallback` — a typo
// must not silently become a different thread count or split.
std::optional<long> EnvInt(const char* name, const char* fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return std::nullopt;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0') {
    std::fprintf(stderr,
                 "punica: unrecognized %s=\"%s\" (expected an integer); "
                 "using %s\n",
                 name, env, fallback);
    return std::nullopt;
  }
  return v;
}

}  // namespace

int ComputeContext::ResolveThreadCount(int requested) {
  long n = requested;
  if (n <= 0) {
    n = EnvInt("PUNICA_THREADS", "the hardware thread count").value_or(0);
  }
  if (n <= 0) n = static_cast<long>(std::thread::hardware_concurrency());
  return static_cast<int>(std::clamp<long>(n, 1, kMaxThreads));
}

int ComputeContext::ResolveAttnSplit(int requested) {
  long s = requested;
  if (s <= 0) {
    s = EnvInt("PUNICA_ATTN_SPLIT", "the split heuristic (0)").value_or(0);
  }
  return static_cast<int>(std::clamp<long>(s, 0, kMaxAttnSplit));
}

ComputeContext::ComputeContext(ComputeConfig config)
    : owned_pool_(
          std::make_unique<ThreadPool>(ResolveThreadCount(config.num_threads))),
      pool_(owned_pool_.get()),
      attn_split_(ResolveAttnSplit(config.attn_split)) {}

std::vector<std::unique_ptr<ComputeContext>> ComputeContext::Split(
    int k) const {
  PUNICA_CHECK_MSG(group_ < 0, "Split on a group view is not supported");
  PUNICA_CHECK(k >= 1);
  pool_->Partition(k);
  std::vector<std::unique_ptr<ComputeContext>> views;
  views.reserve(static_cast<std::size_t>(k));
  for (int g = 0; g < k; ++g) {
    views.push_back(std::unique_ptr<ComputeContext>(
        new ComputeContext(pool_, g, attn_split_)));
  }
  return views;
}

const ComputeContext& ComputeContext::Default() {
  static ComputeContext context;
  return context;
}

}  // namespace punica
