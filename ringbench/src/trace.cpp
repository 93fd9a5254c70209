#include "trace.hpp"

#include <chrono>
#include <cstdio>

#include "alloc_count.hpp"

namespace ringbench {

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void NodeTrace::on_recv(bool got) {
  ++recv_calls_;
  if (!got) {
    ++recv_empty_;
    return;
  }
  const std::int64_t t = mono_ns();
  const AllocPause pause;
  std::lock_guard<std::mutex> lock(rx_mu_);
  rx_stamps_.push_back(t);
}

void NodeTrace::step_begin(SpanKind kind) {
  const AllocPause pause;
  step_kind_ = kind;
  step_start_ns_ = mono_ns();
  step_send_ns_ = 0;
  step_sends_ = 0;
  if (kind != SpanKind::Datagram) return;
  std::int64_t rx = 0;
  bool have = false;
  {
    std::lock_guard<std::mutex> lock(rx_mu_);
    if (!rx_stamps_.empty()) {
      rx = rx_stamps_.front();
      rx_stamps_.pop_front();
      have = true;
    }
  }
  if (!have) {
    ++unmatched_waits_;
    return;
  }
  spans_.push_back(Span{rx, step_start_ns_, node_, steps_, SpanKind::Wait});
  wait_ns_.push_back(step_start_ns_ - rx);
}

void NodeTrace::step_end() {
  const std::int64_t end = mono_ns();
  const AllocPause pause;
  const std::int64_t dur = end - step_start_ns_;
  spans_.push_back(Span{step_start_ns_, end, node_, steps_, step_kind_});
  ++steps_;
  self_ns_.push_back(dur - step_send_ns_);
  if (step_kind_ == SpanKind::Tick) {
    ++ticks_;
    if (step_sends_ == 0) ++idle_ticks_;
  }
}

void NodeTrace::on_send(std::int64_t t0, std::int64_t t1,
                        const std::vector<std::uint8_t>& bytes) {
  const AllocPause pause;
  spans_.push_back(Span{t0, t1, node_, steps_, SpanKind::Send});
  send_ns_.push_back(t1 - t0);
  step_send_ns_ += t1 - t0;
  ++step_sends_;
  ++frames_sent_;
  bytes_sent_ += bytes.size();
  // Sample every 7th frame until the cap: spreads the sample over the run.
  if (captured_.size() < capture_cap_ && frames_sent_ % 7 == 1) {
    captured_.push_back(bytes);
  }
}

bool TimedTransport::send(ringnet::NodeId to,
                          const std::vector<std::uint8_t>& bytes) {
  const std::int64_t t0 = mono_ns();
  const bool ok = inner_->send(to, bytes);
  trace_.on_send(t0, mono_ns(), bytes);
  return ok;
}

std::optional<rt::Datagram> TimedTransport::recv(std::int64_t timeout_us) {
  auto d = inner_->recv(timeout_us);
  trace_.on_recv(d.has_value());
  return d;
}

void TimedNode::on_datagram(const rt::Datagram& d, std::int64_t now_us) {
  trace_.step_begin(SpanKind::Datagram);
  inner_.on_datagram(d, now_us);
  trace_.step_end();
}

void TimedNode::on_tick(std::int64_t now_us) {
  trace_.step_begin(SpanKind::Tick);
  inner_.on_tick(now_us);
  trace_.step_end();
}

void MhProbe::observe(std::int64_t now_us) {
  const AllocPause pause;
  const std::uint64_t submitted = inner_.submitted_count();
  while (submit_us_.size() < submitted) submit_us_.push_back(now_us);
  const std::size_t delivered = inner_.deliveries().size();
  if (deliver_us_.size() < delivered) {
    deliver_us_.resize(delivered, now_us);
    delivered_.store(delivered, std::memory_order_release);
  }
}

void MhProbe::on_datagram(const rt::Datagram& d, std::int64_t now_us) {
  if (start_us_ == rt::kNeverUs && d.kind == rt::FrameKind::Control) {
    const AllocPause pause;
    const auto ctl = rt::decode_control(d.payload.data(), d.payload.size());
    if (ctl && ctl->op == rt::ControlOp::Start) start_us_ = now_us;
  }
  inner_.on_datagram(d, now_us);
  observe(now_us);
}

void MhProbe::on_tick(std::int64_t now_us) {
  inner_.on_tick(now_us);
  observe(now_us);
}

void SsProbe::on_datagram(const rt::Datagram& d, std::int64_t now_us) {
  inner_.on_datagram(d, now_us);
  if (started_at_us_.load(std::memory_order_relaxed) == rt::kNeverUs &&
      inner_.started()) {
    started_at_us_.store(clock_.now_us(), std::memory_order_release);
  }
}

bool write_spans(const std::string& path,
                 const std::vector<std::unique_ptr<NodeTrace>>& traces) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  static const char* const kKind[] = {"datagram", "tick", "send", "wait"};
  std::fprintf(f, "kind\tnode\tstep\tstart_ns\tend_ns\n");
  for (const auto& t : traces) {
    for (const Span& s : t->spans()) {
      std::fprintf(f, "%s\t%u\t%u\t%lld\t%lld\n",
                   kKind[static_cast<int>(s.kind)], s.node, s.step,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace ringbench
