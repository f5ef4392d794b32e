// Frontend servers (paper Fig. 2): accept end-user requests, forward them to
// the scheduler (unary RPC in the paper; direct call here), and stream
// generated tokens back to each user. User disconnects become scheduler
// cancellations — the same primitive migration is built from (§5.3).
//
// The frontend owns the ServingRequest objects for its users; the cluster
// driver/scheduler only borrows them (mirroring the paper's split where
// request state lives at the serving tier, not on GPUs). It is tier-neutral:
// submissions are SubmitSpecs, so the same frontend streams synthetic tags
// from the simulated tier or real token ids from the numeric tier.
//
// Session lifetime (bounded memory over long traces): a session is freed
// when the user disconnects, when a *subscribed* stream finishes (tokens
// were already delivered), or when the consumer releases it explicitly;
// `total_submitted()` is a monotonic counter, not the live-session count.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "frontend/stream.h"
#include "runtime/backend.h"
#include "runtime/request.h"
#include "runtime/submit_spec.h"

namespace punica {

class Frontend {
 public:
  /// Wiring to the scheduler tier. `submit` routes a new request (the unary
  /// RPC); `cancel` propagates user disconnects.
  struct SchedulerApi {
    std::function<void(ServingRequest*)> submit;
    std::function<bool(std::int64_t)> cancel;
  };

  /// `id_base`/`id_stride` partition the request-id space across frontends
  /// so ids never collide (frontend i issues id_base + k·id_stride).
  Frontend(int frontend_id, SchedulerApi api, std::int64_t id_base = 0,
           std::int64_t id_stride = 1);

  int frontend_id() const { return frontend_id_; }

  /// User-facing: submit a generation request; returns the handle whose
  /// TokenStream the user consumes. A spec with an empty prompt or
  /// max_new_tokens < 1 is refused: the handle is invalid, no session is
  /// created and total_rejected() counts it.
  RequestHandle Submit(const SubmitSpec& spec);

  /// The response stream for a request of this frontend, or nullptr when
  /// the handle is unknown (another frontend's request, an invalid handle,
  /// or a session already released) — never aborts.
  TokenStream* Stream(RequestHandle h);
  const TokenStream* Stream(RequestHandle h) const;
  bool Owns(RequestHandle h) const;

  /// Subscriber mode: tokens for `h` are delivered through `on_token` as
  /// they arrive (nothing is buffered), and the session frees itself when
  /// the stream finishes. Returns false when the handle is unknown.
  bool Subscribe(RequestHandle h, TokenStream::TokenCallback on_token,
                 TokenStream::CloseCallback on_close = nullptr);

  /// User disconnect: cancels upstream, closes and frees the session.
  void Disconnect(RequestHandle h);

  /// Frees a finished (pull-mode) session once the consumer is done with
  /// it. Returns false when the handle is unknown or the stream is still
  /// open.
  bool Release(RequestHandle h);

  /// Runner-side callbacks (wired to ClusterDriver's emission callback).
  /// Unknown ids (other frontends' requests) are ignored.
  void OnStep(const StepResult& result, double now);
  void OnToken(std::int64_t request_id, std::int32_t token, double now);
  void OnFinished(std::int64_t request_id, double now);

  std::size_t active_streams() const;
  std::size_t live_sessions() const { return sessions_.size(); }
  /// Requests ever submitted through this frontend (monotonic; unaffected
  /// by session reclamation).
  std::size_t total_submitted() const { return total_submitted_; }
  /// Specs Submit refused (monotonic).
  std::size_t total_rejected() const { return total_rejected_; }

 private:
  struct Session {
    std::unique_ptr<ServingRequest> request;
    TokenStream stream;
  };

  int frontend_id_;
  SchedulerApi api_;
  std::int64_t next_id_;
  std::int64_t id_stride_;
  std::size_t total_submitted_ = 0;
  std::size_t total_rejected_ = 0;
  std::map<std::int64_t, Session> sessions_;
};

}  // namespace punica
