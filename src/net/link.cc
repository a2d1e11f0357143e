#include "net/link.h"

namespace lbtrust::net {

namespace {

/// Calls `f(name, labels, handle, value)` for every wire counter: the one
/// list that names the `lbtrust_transport_*` series.
template <typename Handles, typename F>
void ForEachWireSeries(Handles& h, TransportStats& v, F f) {
  const char* out = "direction=\"out\"";
  const char* in = "direction=\"in\"";
  f("lbtrust_transport_bytes_total", out, h.bytes_out, v.bytes_out);
  f("lbtrust_transport_bytes_total", in, h.bytes_in, v.bytes_in);
  f("lbtrust_transport_frames_total", out, h.frames_out, v.frames_out);
  f("lbtrust_transport_frames_total", in, h.frames_in, v.frames_in);
  f("lbtrust_transport_data_frames_total", out, h.data_frames_out,
    v.data_frames_out);
  f("lbtrust_transport_data_frames_total", in, h.data_frames_in,
    v.data_frames_in);
  f("lbtrust_transport_tuple_bytes_total", out, h.tuple_bytes_out,
    v.tuple_bytes_out);
  f("lbtrust_transport_tuple_bytes_total", in, h.tuple_bytes_in,
    v.tuple_bytes_in);
  f("lbtrust_transport_credential_bytes_total", out, h.credential_bytes_out,
    v.credential_bytes_out);
  f("lbtrust_transport_credential_bytes_total", in, h.credential_bytes_in,
    v.credential_bytes_in);
  f("lbtrust_transport_acks_total", out, h.acks_out, v.acks_out);
  f("lbtrust_transport_acks_total", in, h.acks_in, v.acks_in);
  f("lbtrust_transport_retries_total", "", h.retries, v.retries);
  f("lbtrust_transport_reconnects_total", "", h.reconnects, v.reconnects);
  f("lbtrust_transport_duplicate_frames_in_total", "", h.duplicate_frames_in,
    v.duplicate_frames_in);
  f("lbtrust_transport_oversize_rejects_total", "", h.oversize_rejects,
    v.oversize_rejects);
  f("lbtrust_transport_deadline_closes_total", "", h.deadline_closes,
    v.deadline_closes);
}

}  // namespace

WireCounters::WireCounters(obs::MetricsRegistry* metrics) {
  TransportStats unused;
  ForEachWireSeries(*this, unused,
                    [metrics](const char* name, const char* labels,
                              obs::Counter*& handle, uint64_t&) {
                      handle = metrics->GetCounter(name, labels);
                    });
}

void WireCounters::Queued(const Frame& frame) {
  (frame.kind == Frame::Kind::kData ? tuple_bytes_out : credential_bytes_out)
      ->Add(frame.payload.size());
}

void WireCounters::Sent(Frame::Kind kind) {
  frames_out->Add();
  if (kind == Frame::Kind::kData || kind == Frame::Kind::kCredential) {
    data_frames_out->Add();
  } else if (kind == Frame::Kind::kAck) {
    acks_out->Add();
  }
}

void WireCounters::Received(const Frame& frame, bool repeat) {
  frames_in->Add();
  if (frame.kind == Frame::Kind::kAck) {
    acks_in->Add();
  } else if (frame.reliable()) {
    data_frames_in->Add();
    (frame.kind == Frame::Kind::kData ? tuple_bytes_in : credential_bytes_in)
        ->Add(frame.payload.size());
    if (repeat) duplicate_frames_in->Add();
  }
}

TransportStats WireCounters::Read() const {
  TransportStats s;
  ForEachWireSeries(*this, s,
                    [](const char*, const char*, obs::Counter* handle,
                       uint64_t& value) { value = handle->value(); });
  return s;
}

void Link::Queue(Frame frame, size_t bytes) {
  frame.seq = next_seq_++;
  unsent_bytes_ += bytes;
  frames_.emplace(frame.seq, Entry{std::move(frame), bytes, false});
}

void Link::Ack(uint64_t seq) {
  auto it = frames_.find(seq);
  if (it == frames_.end()) return;
  if (!it->second.sent) unsent_bytes_ -= it->second.bytes;
  frames_.erase(it);
}

size_t Link::Reset() {
  size_t sent = 0;
  unsent_bytes_ = 0;
  for (auto& [seq, entry] : frames_) {
    sent += entry.sent ? 1 : 0;
    entry.sent = false;
    unsent_bytes_ += entry.bytes;
  }
  return sent;
}

bool Window::Repeat(uint64_t seq) {
  if (seq <= mark_ || !above_.insert(seq).second) return true;
  while (!above_.empty() && *above_.begin() == mark_ + 1) {
    above_.erase(above_.begin());
    ++mark_;
  }
  return false;
}

void Network::Broadcast(const Frame& frame) {
  for (const auto& [peer, link] : links_) Send(peer, frame);
}

bool Network::AllAcked() const {
  for (const auto& [peer, link] : links_) {
    if (link.unacked() != 0) return false;
  }
  return true;
}

void Network::Queue(const std::string& peer, Frame frame, size_t bytes) {
  wire_->Queued(frame);
  links_.at(peer).Queue(std::move(frame), bytes);
}

void Network::Connected(const std::string& peer, bool again) {
  Frame hello;
  hello.kind = Frame::Kind::kHello;
  Send(peer, std::move(hello));
  if (again) wire_->reconnects->Add();
  wire_->retries->Add(links_.at(peer).Reset());
  if (on_connect_) on_connect_(peer);
}

util::Result<bool> Network::Receive(const Frame& frame) {
  const bool repeat =
      frame.reliable() && windows_[frame.from].Repeat(frame.seq);
  wire_->Received(frame, repeat);
  if (frame.kind == Frame::Kind::kAck) {
    auto link = links_.find(frame.from);
    if (link != links_.end()) link->second.Ack(frame.seq);
    return false;
  }
  if (handler_) LB_RETURN_IF_ERROR(handler_(frame));
  return frame.reliable();
}

Frame Network::AckFor(const Frame& frame) const {
  Frame ack;
  ack.kind = Frame::Kind::kAck;
  ack.seq = frame.seq;
  ack.from = self_;
  return ack;
}

}  // namespace lbtrust::net
