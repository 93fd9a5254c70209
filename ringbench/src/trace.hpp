#pragma once
// Wrappers at the runtime's two public seams, runtime::Transport and
// runtime::RuntimeNode.
//
// MhProbe and SsProbe run in every run. MhProbe stamps each submission and
// delivery of a mobile host with the same now_us the role receives (the
// client's own measurement); SsProbe stamps the moment the supervisor
// broadcasts Start, which ends set-up.
//
// TimedTransport and TimedNode run only in the traced run. They record, in
// memory, one span per node step (datagram or tick), a child span per
// Transport::send inside that step, and the wait between a datagram
// leaving Transport::recv and the role's on_datagram picking it up.
//
// The wrappers' own heap use runs under AllocPause, so the traced run's
// allocation count is the program's alone.

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/event_loop.hpp"
#include "runtime/node.hpp"
#include "runtime/transport.hpp"
#include "runtime/udp_transport.hpp"
#include "util/clock.hpp"

namespace ringbench {

namespace rt = ringnet::runtime;

/// Monotonic nanoseconds (steady_clock), shared by every span.
std::int64_t mono_ns();

enum class SpanKind : std::uint8_t { Datagram = 0, Tick = 1, Send = 2, Wait = 3 };

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t node = 0;
  // Ordinal of the node's step the span belongs to: the step itself, the
  // step a send ran inside, or the step a waiting datagram was handed to.
  std::uint32_t step = 0;
  SpanKind kind = SpanKind::Datagram;
};

/// Per-node trace buffers. Steps and sends are written by the node's
/// protocol thread; recv stamps come from its rx thread through a
/// mutex-guarded FIFO (the loop dispatches datagrams in recv order, so the
/// k-th stamp belongs to the k-th on_datagram). Read only after the node's
/// loop has stopped.
class NodeTrace {
 public:
  NodeTrace(std::uint32_t node, std::size_t capture_cap)
      : node_(node), capture_cap_(capture_cap) {}

  // rx thread
  void on_recv(bool got);

  // protocol thread
  void step_begin(SpanKind kind);
  void step_end();
  void on_send(std::int64_t t0, std::int64_t t1,
               const std::vector<std::uint8_t>& bytes);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::int64_t>& step_self_ns() const { return self_ns_; }
  const std::vector<std::int64_t>& send_ns() const { return send_ns_; }
  const std::vector<std::int64_t>& wait_ns() const { return wait_ns_; }
  const std::vector<std::vector<std::uint8_t>>& captured() const {
    return captured_;
  }
  std::uint64_t ticks() const { return ticks_; }
  std::uint64_t idle_ticks() const { return idle_ticks_; }
  std::uint64_t recv_calls() const { return recv_calls_; }
  std::uint64_t recv_empty() const { return recv_empty_; }
  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t unmatched_waits() const { return unmatched_waits_; }

 private:
  const std::uint32_t node_;
  const std::size_t capture_cap_;

  std::mutex rx_mu_;
  std::deque<std::int64_t> rx_stamps_;  // guarded by rx_mu_
  std::uint64_t recv_calls_ = 0;        // rx thread
  std::uint64_t recv_empty_ = 0;        // rx thread

  std::vector<Span> spans_;
  std::vector<std::int64_t> self_ns_;
  std::vector<std::int64_t> send_ns_;
  std::vector<std::int64_t> wait_ns_;
  std::vector<std::vector<std::uint8_t>> captured_;
  std::uint64_t ticks_ = 0;
  std::uint64_t idle_ticks_ = 0;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t unmatched_waits_ = 0;
  // Open step.
  std::uint32_t steps_ = 0;  // ordinal of the open step
  SpanKind step_kind_ = SpanKind::Tick;
  std::int64_t step_start_ns_ = 0;
  std::int64_t step_send_ns_ = 0;
  std::uint64_t step_sends_ = 0;
};

/// Transport decorator: times every send (child span of the open step),
/// counts empty receives, stamps each received datagram and keeps a
/// bounded sample of sent frames for the codec replay.
class TimedTransport final : public rt::Transport {
 public:
  TimedTransport(std::unique_ptr<rt::UdpTransport> inner, NodeTrace& trace)
      : rt::Transport(inner->self()), inner_(std::move(inner)), trace_(trace) {}

  bool send(ringnet::NodeId to, const std::vector<std::uint8_t>& bytes)
      override;
  std::optional<rt::Datagram> recv(std::int64_t timeout_us) override;

 private:
  std::unique_ptr<rt::UdpTransport> inner_;
  NodeTrace& trace_;
};

/// RuntimeNode decorator: one span per on_datagram / on_tick.
class TimedNode final : public rt::RuntimeNode {
 public:
  TimedNode(rt::RuntimeNode& inner, NodeTrace& trace)
      : inner_(inner), trace_(trace) {}

  void on_start(std::int64_t now_us) override { inner_.on_start(now_us); }
  void on_datagram(const rt::Datagram& d, std::int64_t now_us) override;
  void on_tick(std::int64_t now_us) override;

 private:
  rt::RuntimeNode& inner_;
  NodeTrace& trace_;
};

/// Mobile-host probe: the start of the MH's source (first Start control
/// frame), the time each lseq was submitted, and the time of each delivery
/// (parallel to MhRuntime::deliveries()). Read after the loop stops, except
/// delivered(), which the main thread polls.
class MhProbe final : public rt::RuntimeNode {
 public:
  explicit MhProbe(rt::MhRuntime& inner) : inner_(inner) {}

  void on_start(std::int64_t now_us) override { inner_.on_start(now_us); }
  void on_datagram(const rt::Datagram& d, std::int64_t now_us) override;
  void on_tick(std::int64_t now_us) override;

  std::int64_t start_us() const { return start_us_; }
  const std::vector<std::int64_t>& submit_us() const { return submit_us_; }
  const std::vector<std::int64_t>& deliver_us() const { return deliver_us_; }
  std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_acquire);
  }

 private:
  void observe(std::int64_t now_us);

  rt::MhRuntime& inner_;
  std::int64_t start_us_ = rt::kNeverUs;
  std::vector<std::int64_t> submit_us_;
  std::vector<std::int64_t> deliver_us_;
  std::atomic<std::uint64_t> delivered_{0};
};

/// Supervisor probe: stamps (on the shared clock) the Start broadcast.
class SsProbe final : public rt::RuntimeNode {
 public:
  SsProbe(rt::SsRuntime& inner, ringnet::util::Clock& clock)
      : inner_(inner), clock_(clock) {}

  void on_start(std::int64_t now_us) override { inner_.on_start(now_us); }
  void on_datagram(const rt::Datagram& d, std::int64_t now_us) override;
  void on_tick(std::int64_t now_us) override { inner_.on_tick(now_us); }

  /// kNeverUs until Start went out.
  std::int64_t started_at_us() const {
    return started_at_us_.load(std::memory_order_acquire);
  }

 private:
  rt::SsRuntime& inner_;
  ringnet::util::Clock& clock_;
  std::atomic<std::int64_t> started_at_us_{rt::kNeverUs};
};

/// Write every node's spans to `path` as tab-separated text
/// (kind, node, step, start_ns, end_ns). Returns false on I/O failure.
bool write_spans(const std::string& path,
                 const std::vector<std::unique_ptr<NodeTrace>>& traces);

}  // namespace ringbench
