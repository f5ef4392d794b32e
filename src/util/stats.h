// Small statistics toolkit used by benchmarks, the cluster simulator and the
// statistical sampler tests: streaming moments, percentiles, histograms and
// time-series accumulation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace punica {

/// Streaming mean/variance (Welford). O(1) memory; numerically stable.
class RunningStat {
 public:
  void Add(double x);
  void Merge(const RunningStat& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  double variance() const;  ///< Sample variance (n-1 denominator).
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Percentile with linear interpolation; q in [0, 100]. Copies + sorts.
double Percentile(std::span<const double> xs, double q);

/// Fixed-width histogram over [lo, hi); out-of-range values clamp to the
/// first/last bucket. Used for batch-size and latency distributions.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void Add(double x);
  std::size_t bucket_count() const { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  std::uint64_t total() const { return total_; }
  double bucket_lo(std::size_t i) const;
  double bucket_hi(std::size_t i) const;

  /// Renders a one-line ASCII sparkline ("▁▂▃…") of bucket mass.
  std::string Sparkline() const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Latency sample recorder shared by every per-request latency metric in
/// the serving stack: inter-token latency (ITL), time-to-first-token
/// (TTFT), queueing delay and end-to-end latency all accumulate into one of
/// these, so mean/percentile/max definitions are identical everywhere a
/// tail is quoted. Keeps every sample (percentiles need them) plus a
/// RunningStat for O(1) moments; Quantile() shares util/stats Percentile.
class LatencyRecorder {
 public:
  void Add(double seconds);
  void Merge(const LatencyRecorder& other);

  std::size_t count() const { return stat_.count(); }
  bool empty() const { return stat_.count() == 0; }
  double mean() const { return stat_.mean(); }
  double min() const { return stat_.min(); }
  double max() const { return stat_.max(); }
  double sum() const { return stat_.sum(); }
  /// Percentile q in [0, 100] with linear interpolation; 0.0 when empty
  /// (metrics print before any sample exists — e.g. TTFT when every
  /// request was shed).
  double Quantile(double q) const;
  double p50() const { return Quantile(50.0); }
  double p95() const { return Quantile(95.0); }
  double p99() const { return Quantile(99.0); }

  std::span<const double> samples() const { return samples_; }
  /// Fixed-width histogram of the samples over [lo, hi).
  Histogram ToHistogram(double lo, double hi, std::size_t buckets) const;

 private:
  RunningStat stat_;
  std::vector<double> samples_;
};

/// Shared-prefix KV-cache observability: counters accumulated by a serving
/// backend (numeric Engine or simulated GpuRunner) plus point-in-time
/// gauges filled when the snapshot is taken. One struct on both tiers so
/// benches and examples print identical reports; the tiers cache in
/// different units, so some fields mean different things:
///
///   field           Engine (page-keyed cache)      GpuRunner (simulated)
///   lookups         first prefill chunks that      first prefill chunks of
///                   consulted the cache            prefix-group requests
///   hits            those that forked ≥ 1 page     those with a cached entry
///   hit_tokens      tokens forked (whole pages)    tokens served (token-
///                                                  granular)
///   prefill_tokens  prefill tokens computed        prefill tokens computed
///   insertions      pages keyed                    prefix-group entries
///                                                  registered
///   evictions       keyed pages reclaimed by       entries evicted (LRU)
///                   allocation
///   cached_entries  keyed pages (referenced or     prefix-group entries
///                   reclaimable)
///   cached_tokens   cached_entries · page_size     tokens in the entries
///   pages_in_use    pages referenced or cached     KV tokens in use
///   shared_pages    pages with refcount ≥ 2        cached tokens
///   free_pages      pages neither referenced nor   free KV tokens
///                   cached (reclaimable excluded)
struct PrefixCacheStats {
  // Counters.
  std::int64_t lookups = 0;
  std::int64_t hits = 0;
  std::int64_t hit_tokens = 0;
  std::int64_t prefill_tokens = 0;
  std::int64_t insertions = 0;
  std::int64_t evictions = 0;
  // Gauges (state at snapshot time).
  std::int64_t cached_entries = 0;
  std::int64_t cached_tokens = 0;
  std::int32_t pages_in_use = 0;
  std::int32_t shared_pages = 0;
  std::int32_t free_pages = 0;

  double HitRate() const;
  /// Fraction of would-be prefill tokens served from cache:
  /// hit_tokens / (hit_tokens + prefill_tokens).
  double TokenSaveRate() const;
  /// One-line human-readable report.
  std::string Format() const;
};

/// Accumulates (time, value) samples and reduces them into fixed windows —
/// e.g. tokens/s per 60-second bucket for the Fig. 13 time series.
class TimeSeries {
 public:
  void Add(double t, double value);

  struct WindowRow {
    double window_start;
    double sum;
    std::size_t count;
    double mean;
  };
  /// Buckets samples into [0,w), [w,2w)… windows over [0, horizon).
  std::vector<WindowRow> Windows(double window, double horizon) const;

  std::size_t size() const { return times_.size(); }
  std::span<const double> times() const { return times_; }
  std::span<const double> values() const { return values_; }

 private:
  std::vector<double> times_;
  std::vector<double> values_;
};

}  // namespace punica
