// First-class SLO metrics for open-loop serving, built on
// util/stats::LatencyRecorder so every latency family (TTFT, queueing,
// end-to-end, inter-token) reports the same mean/quantile surface.
#pragma once

#include <cstdint>

#include "runtime/request.h"
#include "serving/slo.h"
#include "util/stats.h"

namespace punica {

/// Aggregated over one serving run. All latencies are in seconds and dated
/// from *arrival* (front-door entry), not admission — queueing is part of
/// the user experience, so it is part of the SLO.
struct ServingMetrics {
  LatencyRecorder ttft;        ///< first token − arrival
  LatencyRecorder queue_wait;  ///< first backend admission − arrival
  LatencyRecorder e2e;         ///< finish − arrival
  LatencyRecorder itl;         ///< per-token decode gaps (streamed emissions)

  std::int64_t offered = 0;   ///< requests that reached the front door
  std::int64_t finished = 0;
  /// Dropped at the door: overflow, stale, malformed (max_new_tokens or
  /// prompt length < 1), or still unadmitted when the run drained.
  std::int64_t shed = 0;
  std::int64_t good = 0;      ///< finished within both SLO targets
  std::int64_t total_new_tokens = 0;

  /// Folds a finished request into the recorders and the goodput counter,
  /// reading the timestamps the backends stamped (arrival_time, admit_time,
  /// first_token_time, finish_time).
  void RecordFinished(const ServingRequest& req, const SloSpec& slo);

  /// Goodput: good / offered. Shed requests were offered but can never be
  /// good, so load shedding honestly depresses this number.
  double goodput() const {
    return offered > 0 ? static_cast<double>(good) /
                             static_cast<double>(offered)
                       : 0.0;
  }
};

/// True when a finished request met both targets: TTFT within
/// `ttft_target_s` and mean inter-token time within `itl_target_s`.
bool MeetsSlo(const ServingRequest& req, const SloSpec& slo);

}  // namespace punica
