// Fixed-latency channels: flits and credits are scheduled with an arrival
// cycle and delivered in FIFO order. Arrival times are monotone because the
// sender schedules at (now + constant latency), so a FIFO ring suffices; the
// in-flight count is bounded by the link latency (one push per cycle, and
// everything older than `latency` cycles has already been delivered), which
// lets Network pre-size every channel for allocation-free steady state.
#pragma once

#include <cassert>
#include <cstddef>
#include <utility>

#include "noc/flit.hpp"
#include "noc/ring_buffer.hpp"

namespace hm::noc {

/// FIFO delay line carrying `Payload` values tagged with an arrival cycle.
template <typename Payload>
class TimedRing {
 public:
  /// Pre-sizes the ring (see Network; the channel still grows if exceeded).
  void reserve(std::size_t min_capacity) { q_.reserve(min_capacity); }

  void push(const Payload& v, Cycle arrival) {
    assert(q_.empty() || q_.back().at <= arrival);
    q_.push_back(Slot{arrival, v});
  }
  [[nodiscard]] bool ready(Cycle now) const {
    return !q_.empty() && q_.front().at <= now;
  }
  Payload pop() {
    Payload v = q_.front().v;
    q_.pop_front();
    return v;
  }
  [[nodiscard]] std::size_t in_flight() const { return q_.size(); }
  /// Arrival cycle of the oldest in-flight payload (in_flight() > 0).
  [[nodiscard]] Cycle next_arrival() const { return q_.front().at; }

  /// Visits every in-flight payload in FIFO order (fault excision).
  template <typename Fn>
  void for_each(Fn fn) const {
    for (std::size_t i = 0; i < q_.size(); ++i) fn(q_[i].v);
  }

  /// Removes every in-flight payload for which `pred(payload)` is true,
  /// preserving the order and arrival times of the survivors. Returns the
  /// number removed. Fault-excision only — O(in_flight) rebuild.
  template <typename Pred>
  std::size_t remove_if(Pred pred) {
    const std::size_t before = q_.size();
    RingQueue<Slot> kept;
    kept.reserve(q_.capacity());
    for (std::size_t i = 0; i < before; ++i) {
      if (!pred(q_[i].v)) kept.push_back(q_[i]);
    }
    if (kept.size() == before) return 0;
    q_ = std::move(kept);
    return before - q_.size();
  }

  /// Drops everything in flight, keeping the allocation (arena reset).
  void clear() noexcept { q_.clear(); }

 private:
  struct Slot {
    Cycle at = 0;
    Payload v{};
  };
  RingQueue<Slot> q_;
};

/// FIFO delay line carrying flits.
using FlitChannel = TimedRing<Flit>;

/// FIFO delay line carrying credit returns (the VC being credited).
using CreditChannel = TimedRing<int>;

}  // namespace hm::noc
