#include "serving/load_generator.h"

#include <chrono>
#include <utility>

#include "sim/arrivals.h"
#include "util/check.h"

namespace punica {

std::vector<TraceRequest> GenerateOpenLoopLoad(const OpenLoopSpec& spec) {
  PUNICA_CHECK(spec.num_requests >= 1);
  std::vector<double> times = PoissonArrivalsKeyed(
      spec.rate_rps, static_cast<std::size_t>(spec.num_requests), spec.seed);
  return GenerateOpenLoopTrace(std::move(times), spec.num_models,
                               spec.zipf_alpha, spec.seed, spec.lengths,
                               spec.shared_prefix, spec.priority_classes);
}

TraceSubmitter::TraceSubmitter(std::vector<SubmitSpec> specs,
                               double time_scale)
    : specs_(std::move(specs)), time_scale_(time_scale) {
  PUNICA_CHECK(time_scale_ > 0.0);
}

TraceSubmitter::~TraceSubmitter() { Join(); }

void TraceSubmitter::Start(ArrivalQueue* queue, int num_threads) {
  PUNICA_CHECK(queue != nullptr);
  PUNICA_CHECK(num_threads >= 1);
  PUNICA_CHECK_MSG(threads_.empty(), "submitter fleet already started");
  queue_ = queue;
  remaining_.store(num_threads);
  auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < num_threads; ++t) {
    threads_.emplace_back([this, t, num_threads, start] {
      for (std::size_t i = static_cast<std::size_t>(t); i < specs_.size();
           i += static_cast<std::size_t>(num_threads)) {
        auto due = start + std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(
                                   specs_[i].arrival_time * time_scale_));
        std::this_thread::sleep_until(due);
        // Rescale the arrival stamp to the same (scaled) clock the sleep
        // used, so the consumer's wall-clock timeline is self-consistent.
        SubmitSpec spec = specs_[i];
        spec.arrival_time *= time_scale_;
        // Blocking push: the bounded queue is the backpressure point.
        if (!queue_->Push(std::move(spec))) break;  // shut down under us
      }
      // The last submitter standing closes the queue, so a consumer
      // blocked in Pop wakes and drains without anyone calling Join first.
      if (remaining_.fetch_sub(1) == 1) queue_->Shutdown();
    });
  }
}

void TraceSubmitter::Join() {
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
  queue_ = nullptr;
}

}  // namespace punica
