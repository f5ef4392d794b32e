#include "frontend/frontend.h"

#include "util/check.h"

namespace punica {

Frontend::Frontend(int frontend_id, SchedulerApi api, std::int64_t id_base,
                   std::int64_t id_stride)
    : frontend_id_(frontend_id),
      api_(std::move(api)),
      next_id_(id_base),
      id_stride_(id_stride) {
  PUNICA_CHECK(api_.submit != nullptr);
  PUNICA_CHECK(api_.cancel != nullptr);
  PUNICA_CHECK(id_stride_ >= 1);
}

RequestHandle Frontend::Submit(const SubmitSpec& spec) {
  if (!spec.Servable()) {
    // Refused without a session or a request id.
    ++total_rejected_;
    return RequestHandle();
  }
  std::int64_t id = next_id_;
  next_id_ += id_stride_;
  Session session;
  session.request = std::make_unique<ServingRequest>(
      ServingRequest::FromSpec(id, spec));
  ServingRequest* req = session.request.get();
  sessions_.emplace(id, std::move(session));
  ++total_submitted_;
  api_.submit(req);
  return RequestHandle(id);
}

TokenStream* Frontend::Stream(RequestHandle h) {
  auto it = sessions_.find(h.id());
  return it == sessions_.end() ? nullptr : &it->second.stream;
}

const TokenStream* Frontend::Stream(RequestHandle h) const {
  auto it = sessions_.find(h.id());
  return it == sessions_.end() ? nullptr : &it->second.stream;
}

bool Frontend::Owns(RequestHandle h) const {
  return sessions_.contains(h.id());
}

bool Frontend::Subscribe(RequestHandle h,
                         TokenStream::TokenCallback on_token,
                         TokenStream::CloseCallback on_close) {
  auto it = sessions_.find(h.id());
  if (it == sessions_.end()) return false;
  if (it->second.stream.closed()) {
    // Already over: detach the session before delivering the backlog and
    // close so reentrant Release/Disconnect from the callbacks can't
    // double-erase it.
    Session session = std::move(it->second);
    sessions_.erase(it);
    session.stream.Subscribe(std::move(on_token), std::move(on_close));
    return true;
  }
  it->second.stream.Subscribe(std::move(on_token), std::move(on_close));
  // The backlog delivery may have re-entered this frontend; re-find.
  it = sessions_.find(h.id());
  if (it != sessions_.end() && it->second.stream.closed()) {
    sessions_.erase(it);
  }
  return true;
}

void Frontend::Disconnect(RequestHandle h) {
  auto it = sessions_.find(h.id());
  if (it == sessions_.end()) return;  // unknown or already released
  // The user is gone; detach the session before Close() so a subscriber's
  // on_close calling Release/Disconnect can't double-erase it.
  Session session = std::move(it->second);
  sessions_.erase(it);
  if (!session.stream.closed()) {
    api_.cancel(h.id());
    session.stream.Close(StreamEnd::kCancelled);
  }
}

bool Frontend::Release(RequestHandle h) {
  auto it = sessions_.find(h.id());
  if (it == sessions_.end()) return false;
  if (!it->second.stream.closed()) return false;  // still producing
  sessions_.erase(it);
  return true;
}

void Frontend::OnStep(const StepResult& result, double now) {
  for (const EmittedToken& e : result.emitted) {
    OnToken(e.request_id, e.token, now);
  }
  for (std::int64_t id : result.finished) OnFinished(id, now);
}

void Frontend::OnToken(std::int64_t request_id, std::int32_t token,
                       double now) {
  auto it = sessions_.find(request_id);
  if (it == sessions_.end()) return;  // another frontend's request
  if (it->second.stream.closed()) return;  // raced with a disconnect
  it->second.stream.Push(token, now);
}

void Frontend::OnFinished(std::int64_t request_id, double now) {
  (void)now;
  auto it = sessions_.find(request_id);
  if (it == sessions_.end()) return;
  if (it->second.stream.subscribed()) {
    // Subscribed consumers received every token already — the session frees
    // itself so long traces don't accumulate finished sessions. Detach it
    // from the map *before* Close() delivers on_close, so a callback that
    // calls Release/Disconnect (natural cleanup) can't double-erase.
    Session session = std::move(it->second);
    sessions_.erase(it);
    if (!session.stream.closed()) session.stream.Close(StreamEnd::kFinished);
    return;
  }
  if (!it->second.stream.closed()) {
    it->second.stream.Close(StreamEnd::kFinished);
  }
}

std::size_t Frontend::active_streams() const {
  std::size_t n = 0;
  for (const auto& [id, session] : sessions_) {
    if (!session.stream.closed()) ++n;
  }
  return n;
}

}  // namespace punica
