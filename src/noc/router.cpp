#include "noc/router.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace hm::noc {

namespace {
/// Stream salt separating per-router arbitration streams from every other
/// consumer of derive_seed(cfg.seed, ...) (traffic streams, per-job seeds).
constexpr std::uint64_t kRouterStreamSalt = 0x9061747552746572ULL;
/// Credits of an ejection output VC: never exhausted (SA never decrements
/// them), so ejection requesters are always grantable.
constexpr int kEjectionCredits = 1 << 30;
}  // namespace

Router::Router(std::uint32_t id, const SimConfig& cfg,
               const RoutingTables* tables, const PacketTable* packets)
    : id_(id),
      cfg_(cfg),
      tables_(tables),
      packets_(packets),
      n_network_ports_(tables->num_ports(id)),
      n_ports_(n_network_ports_ +
               static_cast<std::size_t>(cfg.endpoints_per_chiplet)) {
  cfg_.validate();
  const std::size_t vcs = static_cast<std::size_t>(cfg_.vcs);
  in_.resize(n_ports_ * vcs);
  for (auto& iv : in_) {
    iv.buf.reserve(static_cast<std::size_t>(cfg_.buffer_depth));
  }
  out_.resize(n_ports_ * vcs);
  for (std::size_t p = 0; p < n_ports_; ++p) {
    for (int v = 0; v < cfg_.vcs; ++v) {
      // Network outputs start with the downstream buffer depth; ejection
      // outputs are modelled with unbounded credits (the endpoint always
      // sinks flits; the port still serializes 1 flit/cycle).
      out_[static_cast<std::size_t>(flat(p, v))].credits =
          p < n_network_ports_ ? cfg_.buffer_depth : kEjectionCredits;
    }
  }
  out_channel_.assign(n_ports_, nullptr);
  out_latency_.assign(n_ports_, 1);
  credit_channel_.assign(n_ports_, nullptr);
  credit_latency_.assign(n_ports_, 1);
  sa_in_rr_.assign(n_ports_, 0);
  grants_.assign(n_ports_, Grant{});
  mask_words_ = (n_ports_ * vcs + 63) / 64;
  sa_in_used_mask_.assign(mask_words_, 0);
  port_vc_mask_.assign(n_ports_ * mask_words_, 0);
  for (std::size_t p = 0; p < n_ports_; ++p) {
    for (int v = 0; v < cfg_.vcs; ++v) {
      const int idx = flat(p, v);
      port_vc_mask_[word_of(p, idx)] |= bit_of(idx);
    }
  }
  sa_request_mask_.assign(n_ports_ * mask_words_, 0);
  sa_grant_mask_.assign(n_ports_ * mask_words_, 0);
  sa_req_count_.assign(n_ports_, 0);
  sa_grant_count_.assign(n_ports_, 0);
  sa_port_mask_.assign((n_ports_ + 63) / 64, 0);
  occupied_.assign(mask_words_, 0);
  needs_vc_mask_.assign(mask_words_, 0);
  unsent_mask_.assign(mask_words_, 0);
  idle_mask_.assign(mask_words_, 0);
  init_idle_mask();
  free_adaptive_.assign(n_ports_, cfg_.vcs - 1);
  reserved_.assign(in_.size(), Reservation{});
  seed_rng(cfg_.seed);
}

void Router::init_idle_mask() {
  std::fill(idle_mask_.begin(), idle_mask_.end(), 0);
  for (std::size_t idx = 0; idx < in_.size(); ++idx) {
    idle_mask_[idx >> 6] |= bit_of(static_cast<int>(idx));
  }
}

void Router::seed_rng(std::uint64_t base) {
  rng_seed_ = derive_seed(derive_seed(base, kRouterStreamSalt), id_);
  rng_ = Rng(rng_seed_);
}

// HM_HOT: arena lease rewind — state rewind over preallocated flat
// arrays and rings only.
void Router::reset() {
  for (auto& iv : in_) {
    iv.buf.clear();
    iv.state = VcState::kIdle;
    iv.out_port = -1;
    iv.out_vc = -1;
    iv.out_is_ejection = false;
    iv.escape = false;
    iv.next_phase = 0;
    iv.flits_sent = 0;
    iv.blocked_cycles = 0;
    iv.cur_packet = 0;
  }
  for (std::size_t p = 0; p < n_ports_; ++p) {
    for (int v = 0; v < cfg_.vcs; ++v) {
      OutputVc& ov = out_[static_cast<std::size_t>(flat(p, v))];
      ov.credits = p < n_network_ports_ ? cfg_.buffer_depth : kEjectionCredits;
      ov.owner = -1;
    }
  }
  std::fill(sa_in_rr_.begin(), sa_in_rr_.end(), 0);
  n_grants_ = 0;
  std::fill(sa_in_used_mask_.begin(), sa_in_used_mask_.end(), 0);
  std::fill(sa_request_mask_.begin(), sa_request_mask_.end(), 0);
  std::fill(sa_grant_mask_.begin(), sa_grant_mask_.end(), 0);
  std::fill(sa_req_count_.begin(), sa_req_count_.end(), 0);
  std::fill(sa_grant_count_.begin(), sa_grant_count_.end(), 0);
  std::fill(sa_port_mask_.begin(), sa_port_mask_.end(), 0);
  sa_starved_ = 0;
  std::fill(occupied_.begin(), occupied_.end(), 0);
  std::fill(needs_vc_mask_.begin(), needs_vc_mask_.end(), 0);
  std::fill(unsent_mask_.begin(), unsent_mask_.end(), 0);
  init_idle_mask();
  std::fill(free_adaptive_.begin(), free_adaptive_.end(), cfg_.vcs - 1);
  n_reserved_ = 0;
  now_ = 0;
  rng_ = Rng(rng_seed_);
  buffered_ = 0;
  stats_ = HotStats{};
}

void Router::wire_output(std::size_t port, FlitChannel* channel, int latency) {
  if (port >= n_ports_ || channel == nullptr || latency < 1) {
    throw std::invalid_argument("Router::wire_output: bad wiring");
  }
  out_channel_[port] = channel;
  out_latency_[port] = latency;
}

void Router::wire_credit_return(std::size_t port, CreditChannel* channel,
                                int latency) {
  if (port >= n_ports_ || channel == nullptr || latency < 1) {
    throw std::invalid_argument("Router::wire_credit_return: bad wiring");
  }
  credit_channel_[port] = channel;
  credit_latency_[port] = latency;
}

void Router::receive_flit(std::size_t port, Flit f, Cycle now) {
  assert(port < n_ports_);
  assert(f.vc < cfg_.vcs);
  const int idx = flat(port, f.vc);
  InputVc& iv = in_[static_cast<std::size_t>(idx)];
  assert(iv.buf.size() <
         static_cast<std::size_t>(cfg_.buffer_depth));  // credits guarantee
  iv.buf.push_back(BufFlit{f, now + cfg_.router_latency});
  ++buffered_;
  occupied_[static_cast<std::size_t>(idx) >> 6] |= bit_of(idx);
  if (iv.buf.size() > stats_.ring_hwm) stats_.ring_hwm = iv.buf.size();
}

void Router::receive_credit(std::size_t port, int vc) {
  assert(port < n_network_ports_);
  OutputVc& ov = out_[static_cast<std::size_t>(flat(port, vc))];
  if (++ov.credits == 1) on_credit_restored(port, vc);
  assert(ov.credits <= cfg_.buffer_depth);
}

template <class Word, class Visit>
int Router::walk_circular(int start, std::size_t words, Word word,
                          Visit visit) {
  const std::size_t sw = static_cast<std::size_t>(start) >> 6;
  const std::uint64_t high = ~0ULL << (start & 63);
  std::size_t w = sw;
  std::uint64_t m = word(sw) & high;
  for (std::size_t step = 0;;) {
    while (m != 0) {
      const int idx = static_cast<int>(w << 6) + std::countr_zero(m);
      m &= m - 1;
      if (visit(idx)) return idx;
    }
    if (++step > words) return -1;
    if (++w == words) w = 0;
    m = step < words ? word(w) : word(sw) & ~high;
  }
}

// HM_HOT: per-cycle simulation path — no allocation, no throw.
void Router::route_compute(InputVc& iv, int iv_flat) {
  const Flit& head = iv.buf.front().flit;
  assert(head.head);
  iv.cur_packet = head.packet_id;
  if (head.dst_router == id_) {
    // Deliver locally: ejection port of the destination endpoint. The
    // destination endpoint is cold per-packet data, looked up once here.
    assert(packets_ != nullptr);
    const int local_ep =
        static_cast<int>((*packets_)[head.packet_id].dst_endpoint) -
        static_cast<int>(id_) * cfg_.endpoints_per_chiplet;
    assert(local_ep >= 0 && local_ep < cfg_.endpoints_per_chiplet);
    iv.out_port = static_cast<int>(n_network_ports_) + local_ep;
    iv.out_vc = 0;
    iv.out_is_ejection = true;
    iv.escape = false;
    iv.flits_sent = 0;
    iv.blocked_cycles = 0;
    set_state(iv, iv_flat, VcState::kActive);
    mark_request(static_cast<std::size_t>(iv.out_port), 0, iv_flat);
  } else {
    iv.out_is_ejection = false;
    iv.blocked_cycles = 0;
    set_state(iv, iv_flat, VcState::kNeedsVc);
  }
}

// HM_HOT: per-cycle simulation path — no allocation, no throw.
void Router::claim_vc(InputVc& iv, int iv_flat, std::size_t port, int vc,
                      bool escape, std::uint8_t next_phase) {
  OutputVc& ov = out_[static_cast<std::size_t>(flat(port, vc))];
  ov.owner = iv_flat;
  if (vc >= 1) --free_adaptive_[port];
  if (escape) iv.next_phase = next_phase;
  if (ov.credits <= 0 && iv.buf.front().ready_time <= now_) {
    // Doomed: a ready head on a zero-credit VC with nothing sent is revoked
    // at the end of this step (SA cannot grant it and no credit arrives
    // mid-step). Hold the VC as a same-step reservation, released at the
    // revoke point, and account the revocation now — the head is not
    // visited again this VA pass, so the blocked count it reads is the
    // same.
    reserved_[n_reserved_++] = Reservation{static_cast<std::uint32_t>(port),
                                           vc};
    ++iv.blocked_cycles;
    ++stats_.heads_revoked;
    ++stats_.sa_credit_stalls;
    return;
  }
  iv.out_port = static_cast<int>(port);
  iv.out_vc = vc;
  iv.escape = escape;
  iv.flits_sent = 0;
  unsent_mask_[static_cast<std::size_t>(iv_flat) >> 6] |= bit_of(iv_flat);
  set_state(iv, iv_flat, VcState::kActive);
  mark_request(port, vc, iv_flat);
}

// HM_HOT: per-cycle simulation path — no allocation, no throw.
void Router::try_allocate_vc(InputVc& iv, int iv_flat) {
  const Flit& head = iv.buf.front().flit;
  const graph::NodeId dst = head.dst_router;

  const bool use_minimal = cfg_.routing != RoutingMode::kUpDownOnly &&
                           !head.escape && cfg_.vcs > 1;
  if (use_minimal) {
    // Degraded view installed (mid-fault): route on the rebuilt tables with
    // ids translated to the live subgraph.
    const std::span<const std::uint8_t> ports =
        deg_tables_ == nullptr
            ? tables_->minimal_ports(id_, dst)
            : deg_tables_->minimal_ports(deg_live_[id_], deg_live_[dst]);
    std::size_t j = 0;
    std::size_t count = ports.size();
    if (cfg_.routing == RoutingMode::kDeterministicMinimal) {
      // anynet-style: one fixed shortest path per (node, destination).
      count = 1;
    } else if (ports.size() > 1) {
      // Adaptive: rotate the starting candidate to spread load.
      j = static_cast<std::size_t>(rng_.uniform_int(ports.size()));
    }
    for (std::size_t i = 0; i < count; ++i) {
      std::size_t port = ports[j];
      if (++j == ports.size()) j = 0;
      // Degraded view: translate back to the physical port numbering.
      // Healthy runs pay one perfectly-predicted null check.
      if (deg_port_map_ != nullptr) port = deg_port_map_[port];
      if (free_adaptive_[port] == 0) continue;
      for (int vc = 1; vc < cfg_.vcs; ++vc) {
        if (out_[static_cast<std::size_t>(flat(port, vc))].owner < 0) {
          claim_vc(iv, iv_flat, port, vc, false, 0);
          return;
        }
      }
    }
  }

  // Escape (or up*/down*-only mode): deterministic up*/down* next hop.
  // Headers that still have adaptive options only consider the escape VC
  // after `escape_threshold` blocked cycles, so the escape tree root does
  // not become the bottleneck at saturation; deadlock freedom is preserved
  // for any finite threshold (a blocked header eventually requests the
  // always-draining escape network).
  const bool allow_escape =
      !use_minimal || iv.blocked_cycles >= cfg_.escape_threshold;
  if (allow_escape) {
    EscapeHop hop;
    if (deg_tables_ == nullptr) {
      hop = tables_->escape_hop(id_, dst, head.ud_phase);
    } else {
      hop = deg_tables_->escape_hop(deg_live_[id_], deg_live_[dst],
                                    head.ud_phase);
      hop.port = deg_port_map_[hop.port];
    }
    // During a reconvergence window the stale escape hop can aim at a
    // killed port; a detached channel means "wait for the table swap"
    // (blocked, not allocated), never a push into a dead link.
    if (out_channel_[hop.port] == nullptr) {
      ++iv.blocked_cycles;
      ++stats_.va_stall_cycles;
      return;
    }
    const int vc_hi = cfg_.routing == RoutingMode::kUpDownOnly ? cfg_.vcs : 1;
    for (int vc = 0; vc < vc_hi; ++vc) {
      if (out_[static_cast<std::size_t>(flat(hop.port, vc))].owner < 0) {
        claim_vc(iv, iv_flat, hop.port, vc, true, hop.next_phase);
        return;
      }
    }
  }
  ++iv.blocked_cycles;
  ++stats_.va_stall_cycles;
}

// HM_HOT: per-cycle simulation path — no allocation, no throw.
void Router::step(Cycle now) {
  now_ = now;
  const int total_vcs = static_cast<int>(in_.size());

  // --- RC: classify fresh heads (idle VCs with a buffered flit) ----------
  // Ascending, like a scan over every VC.
  for (std::size_t w = 0; w < mask_words_; ++w) {
    std::uint64_t m = occupied_[w] & idle_mask_[w];
    while (m != 0) {
      const int idx = static_cast<int>(w << 6) + std::countr_zero(m);
      m &= m - 1;
      InputVc& iv = in_[static_cast<std::size_t>(idx)];
      assert(iv.buf.front().flit.head);
      route_compute(iv, idx);
    }
  }

  // --- VA: allocate output VCs in round-robin order ------------------------
  // Starting offset derived from the cycle number: identical to a pointer
  // incremented once per cycle, but invariant under idle-cycle skipping.
  // Circular walk of the heads needing a VC from that offset. VA changes
  // only the visited head's own bit, so the walk sees every head that was
  // waiting when the pass began, once.
  walk_circular(
      static_cast<int>(now % static_cast<Cycle>(total_vcs)), mask_words_,
      [&](std::size_t w) { return needs_vc_mask_[w]; },
      [&](int idx) {
        try_allocate_vc(in_[static_cast<std::size_t>(idx)], idx);
        return false;
      });

  // --- SA: switch allocation + traversal -----------------------------------
  switch_allocate(now);

  // --- Escape fallback: release blocked, not-yet-started allocations -------
  revoke_blocked_heads();
}

// HM_HOT: per-cycle simulation path — no allocation, no throw.
void Router::grant_one(std::size_t out_p, Cycle now) {
  const std::uint64_t* grantable = &sa_grant_mask_[out_p * mask_words_];
  for (std::size_t w = 0; w < mask_words_; ++w) {
    stats_.sa_conflict_stalls += static_cast<std::uint64_t>(std::popcount(
        grantable[w] & occupied_[w] & sa_in_used_mask_[w]));
  }
  // Round-robin from sa_in_rr_[out_p] over the requesters that can win:
  // credits available, a buffered flit, input port still unmatched. The
  // first one whose head is ready wins.
  const int idx = walk_circular(
      sa_in_rr_[out_p], mask_words_,
      [&](std::size_t w) {
        return grantable[w] & occupied_[w] & ~sa_in_used_mask_[w];
      },
      [&](int i) {
        return in_[static_cast<std::size_t>(i)].buf.front().ready_time <= now;
      });
  if (idx < 0) return;

  // Grant: traverse the switch and the output link (an 8-byte copy).
  InputVc& iv = in_[static_cast<std::size_t>(idx)];
  const std::size_t in_port =
      static_cast<std::size_t>(idx) / static_cast<std::size_t>(cfg_.vcs);
  OutputVc& ov = out_[static_cast<std::size_t>(flat(out_p, iv.out_vc))];
  assert(ov.credits > 0);
  Flit f = iv.buf.front().flit;
  iv.buf.pop_front();
  --buffered_;
  if (iv.buf.empty()) {
    occupied_[static_cast<std::size_t>(idx) >> 6] &= ~bit_of(idx);
  }
  f.vc = static_cast<std::uint8_t>(iv.out_vc);
  if (iv.escape) {
    f.escape = 1;
    f.ud_phase = iv.next_phase & 1;
  }
  out_channel_[out_p]->push(f, now + out_latency_[out_p]);
  // Ejection credits are unbounded; a network VC's last credit clears its
  // owner's grantable bit (1->0 edge).
  if (!iv.out_is_ejection && --ov.credits == 0) {
    sa_grant_mask_[word_of(out_p, idx)] &= ~bit_of(idx);
    grantable_down(out_p);
  }
  if (iv.flits_sent++ == 0) {
    unsent_mask_[static_cast<std::size_t>(idx) >> 6] &= ~bit_of(idx);
  }
  ++stats_.flits_routed;
  grants_[n_grants_++] = Grant{static_cast<std::uint16_t>(in_port),
                               static_cast<std::uint16_t>(out_p)};
  for (std::size_t w = 0; w < mask_words_; ++w) {
    sa_in_used_mask_[w] |= port_vc_mask_[in_port * mask_words_ + w];
  }

  // Return a credit for the freed buffer slot upstream.
  if (credit_channel_[in_port] != nullptr) {
    credit_channel_[in_port]->push(
        idx - static_cast<int>(in_port) * cfg_.vcs,
        now + credit_latency_[in_port]);
  }

  if (f.tail) {
    // Release the input VC and (for network outputs) the output VC.
    if (!iv.out_is_ejection) {
      ov.owner = -1;
      if (iv.out_vc >= 1) ++free_adaptive_[out_p];
    }
    clear_request(out_p, idx);
    set_state(iv, idx, VcState::kIdle);
    iv.out_port = -1;
    iv.out_vc = -1;
    iv.escape = false;
    iv.next_phase = 0;
    iv.flits_sent = 0;
  }
  sa_in_rr_[out_p] = idx + 1 == static_cast<int>(in_.size()) ? 0 : idx + 1;
}

// HM_HOT: per-cycle simulation path — no allocation, no throw.
void Router::switch_allocate(Cycle now) {
  n_grants_ = 0;
  std::fill(sa_in_used_mask_.begin(), sa_in_used_mask_.end(), 0);

  // Port p's request and grantable counts change only inside p's own
  // grant_one, so the starved sum at entry equals the sum of every port's
  // requests - grantable taken as the pass reaches it.
  stats_.sa_credit_stalls += sa_starved_;

  // One matching pass over the output ports, circularly from an offset
  // derived from the cycle number (see step()), so it is skip-invariant.
  // Only ports with a grantable requester (sa_port_mask_) can grant;
  // skipping the others touches nothing, and grant_one on one port leaves
  // every other port's bit alone, so the walk sees each port whose bit was
  // set when the pass began, once. The pass is already a maximal matching,
  // so further iSLIP-style passes could never add a grant: a port that
  // found no winner keeps none, because its requesters' credits and
  // buffers change only through grants at that same port, readiness does
  // not change within a step, and matched input ports only accumulate.
  walk_circular(
      static_cast<int>(now % static_cast<Cycle>(n_ports_)),
      sa_port_mask_.size(),
      [&](std::size_t w) { return sa_port_mask_[w]; },
      [&](int p) {
        const auto out_p = static_cast<std::size_t>(p);
        if (out_channel_[out_p] != nullptr) grant_one(out_p, now);
        return false;
      });
}

// HM_HOT: per-cycle simulation path — no allocation, no throw.
void Router::revoke_blocked_heads() {
  // Same-step reservations (doomed VA allocations) end here; their heads
  // were accounted as revoked when VA reserved.
  for (std::size_t k = 0; k < n_reserved_; ++k) {
    const Reservation& r = reserved_[k];
    out_[static_cast<std::size_t>(flat(r.port, r.vc))].owner = -1;
    if (r.vc >= 1) ++free_adaptive_[r.port];
  }
  n_reserved_ = 0;
  // No credit-starved requester anywhere (the common case below
  // saturation): nothing to revoke.
  if (sa_starved_ == 0) return;

  // Credit-starved requesters (request & ~grantable) on network ports
  // whose header has not left yet (a started wormhole must stay).
  for (std::size_t p = 0; p < n_network_ports_; ++p) {
    if (sa_req_count_[p] == sa_grant_count_[p]) continue;
    for (std::size_t w = 0; w < mask_words_; ++w) {
      std::uint64_t m = sa_request_mask_[p * mask_words_ + w] &
                        ~sa_grant_mask_[p * mask_words_ + w] & unsent_mask_[w];
      while (m != 0) {
        const int idx = static_cast<int>(w << 6) + std::countr_zero(m);
        m &= m - 1;
        InputVc& iv = in_[static_cast<std::size_t>(idx)];
        assert(iv.state == VcState::kActive && !iv.out_is_ejection &&
               iv.flits_sent == 0);
        if (iv.buf.front().ready_time > now_) continue;
        // Header is blocked with zero progress: release the allocation so
        // the next VA round can try other minimal ports or the escape VC.
        // This must count toward the escape threshold, otherwise a header
        // cycling through allocate/revoke on credit-starved VCs would
        // never become eligible for the escape network.
        out_[static_cast<std::size_t>(flat(p, iv.out_vc))].owner = -1;
        if (iv.out_vc >= 1) ++free_adaptive_[p];
        clear_request(p, idx);
        iv.out_port = -1;
        iv.out_vc = -1;
        iv.escape = false;
        set_state(iv, idx, VcState::kNeedsVc);
        ++iv.blocked_cycles;
        ++stats_.heads_revoked;
      }
    }
  }
}

std::size_t Router::buffered_flits() const {
  std::size_t total = 0;
  for (const auto& iv : in_) total += iv.buf.size();
  return total;
}

void Router::set_degraded(const RoutingTables* tables,
                          const std::uint32_t* live_id,
                          const std::uint8_t* port_map) {
  deg_tables_ = tables;
  deg_live_ = live_id;
  deg_port_map_ = port_map;
}

void Router::fault_kill_port(std::size_t port) {
  assert(port < n_network_ports_);
  out_channel_[port] = nullptr;
  credit_channel_[port] = nullptr;
  for (int v = 0; v < cfg_.vcs; ++v) {
    out_[static_cast<std::size_t>(flat(port, v))].credits = 0;
  }
  free_adaptive_[port] = 0;
  // No credits left: nobody toward this port is grantable any more.
  std::fill_n(sa_grant_mask_.begin() +
                  static_cast<std::ptrdiff_t>(port * mask_words_),
              mask_words_, 0);
  sa_starved_ += sa_grant_count_[port];
  sa_grant_count_[port] = 0;
  sa_port_mask_[port >> 6] &= ~(1ULL << (port & 63));
}

void Router::fault_restore_port(std::size_t port, FlitChannel* out,
                                int out_latency, CreditChannel* credit,
                                int credit_latency) {
  assert(port < n_network_ports_);
  out_channel_[port] = out;
  out_latency_[port] = out_latency;
  credit_channel_[port] = credit;
  credit_latency_[port] = credit_latency;
  for (int v = 0; v < cfg_.vcs; ++v) {
    OutputVc& ov = out_[static_cast<std::size_t>(flat(port, v))];
    assert(ov.owner < 0);
    ov.credits = cfg_.buffer_depth;
  }
  free_adaptive_[port] = cfg_.vcs - 1;
}

void Router::fault_refund_credit(std::size_t port, int vc) {
  assert(port < n_network_ports_);
  OutputVc& ov = out_[static_cast<std::size_t>(flat(port, vc))];
  if (++ov.credits == 1) on_credit_restored(port, vc);
  assert(ov.credits <= cfg_.buffer_depth);
}

void Router::fault_collect_committed(
    const std::function<bool(std::size_t)>& dead_out,
    std::vector<std::uint32_t>* out) const {
  for (const InputVc& iv : in_) {
    if (iv.state == VcState::kActive && !iv.out_is_ejection &&
        iv.flits_sent > 0 &&
        dead_out(static_cast<std::size_t>(iv.out_port))) {
      out->push_back(iv.cur_packet);
    }
  }
}

void Router::fault_collect_all(std::vector<std::uint32_t>* out) const {
  for (const InputVc& iv : in_) {
    for (std::size_t i = 0; i < iv.buf.size(); ++i) {
      out->push_back(iv.buf[i].flit.packet_id);
    }
    if (iv.state != VcState::kIdle) out->push_back(iv.cur_packet);
  }
}

Router::FaultExcision Router::fault_excise(
    const std::function<bool(std::uint32_t)>& poisoned,
    const std::function<bool(std::size_t)>& dead_out,
    const std::function<void(std::size_t, int)>& refund) {
  FaultExcision result;
  std::vector<BufFlit> kept;
  for (std::size_t p = 0; p < n_ports_; ++p) {
    for (int v = 0; v < cfg_.vcs; ++v) {
      const int idx = flat(p, v);
      InputVc& iv = in_[static_cast<std::size_t>(idx)];

      // Drop buffered flits of poisoned packets, refunding the upstream
      // credit for each exactly as a grant would have.
      if (!iv.buf.empty()) {
        kept.clear();
        const std::size_t sz = iv.buf.size();
        for (std::size_t i = 0; i < sz; ++i) {
          const BufFlit& bf = iv.buf[i];
          if (poisoned(bf.flit.packet_id)) {
            refund(p, v);
          } else {
            kept.push_back(bf);
          }
        }
        if (kept.size() != sz) {
          const std::size_t removed = sz - kept.size();
          iv.buf.clear();
          for (const BufFlit& bf : kept) iv.buf.push_back(bf);
          buffered_ -= removed;
          result.flits_removed += removed;
          if (iv.buf.empty()) {
            occupied_[static_cast<std::size_t>(idx) >> 6] &=
                ~(1ULL << (idx & 63));
          }
        }
      }

      // Fix the VC state machine: a poisoned tracked packet resets to
      // idle; a zero-progress allocation toward a dead port is revoked so
      // the head re-routes (packets with flits already on the dead link
      // were poisoned by fault_collect_committed).
      if (iv.state == VcState::kIdle) continue;
      const bool tracked_poisoned = poisoned(iv.cur_packet);
      const bool toward_dead =
          iv.state == VcState::kActive && !iv.out_is_ejection &&
          dead_out(static_cast<std::size_t>(iv.out_port));
      if (!tracked_poisoned && !toward_dead) continue;
      if (iv.state == VcState::kActive) {
        clear_request(static_cast<std::size_t>(iv.out_port), idx);
        if (!iv.out_is_ejection) {
          OutputVc& ov =
              out_[static_cast<std::size_t>(flat(iv.out_port, iv.out_vc))];
          ov.owner = -1;
          if (iv.out_vc >= 1 &&
              !dead_out(static_cast<std::size_t>(iv.out_port))) {
            ++free_adaptive_[static_cast<std::size_t>(iv.out_port)];
          }
        }
      }
      if (tracked_poisoned) {
        set_state(iv, idx, VcState::kIdle);
        iv.blocked_cycles = 0;
        iv.cur_packet = 0;
      } else {
        assert(iv.flits_sent == 0);
        set_state(iv, idx, VcState::kNeedsVc);
        ++result.packets_rerouted;
      }
      iv.out_port = -1;
      iv.out_vc = -1;
      iv.out_is_ejection = false;
      iv.escape = false;
      iv.next_phase = 0;
      iv.flits_sent = 0;
    }
  }
  return result;
}

bool Router::invariants_ok(std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = "router " + std::to_string(id_) + ": " + msg;
    return false;
  };
  if (buffered_ != buffered_flits()) {
    return fail("incremental buffered-flit count out of sync");
  }
  std::size_t starved = 0;
  for (std::size_t p = 0; p < n_ports_; ++p) {
    for (int v = 0; v < cfg_.vcs; ++v) {
      const InputVc& iv = in_[static_cast<std::size_t>(flat(p, v))];
      const int idx = flat(p, v);
      const bool marked =
          (occupied_[static_cast<std::size_t>(idx) >> 6] >> (idx & 63)) & 1;
      if (marked != !iv.buf.empty()) {
        return fail("occupancy bit out of sync with buffer");
      }
      const std::size_t w = static_cast<std::size_t>(idx) >> 6;
      const bool idle_bit = (idle_mask_[w] & bit_of(idx)) != 0;
      const bool needs_vc_bit = (needs_vc_mask_[w] & bit_of(idx)) != 0;
      if (idle_bit != (iv.state == VcState::kIdle) ||
          needs_vc_bit != (iv.state == VcState::kNeedsVc)) {
        return fail("state mask out of sync with VC state");
      }
      if (iv.state == VcState::kNeedsVc && iv.buf.empty()) {
        return fail("head awaiting VA is not buffered");
      }
      const bool unsent_bit = (unsent_mask_[w] & bit_of(idx)) != 0;
      if (unsent_bit != (iv.state == VcState::kActive &&
                         !iv.out_is_ejection && iv.flits_sent == 0)) {
        return fail("unsent bit out of sync");
      }
      if (iv.buf.size() > static_cast<std::size_t>(cfg_.buffer_depth)) {
        return fail("input buffer overflow");
      }
      if (iv.state == VcState::kIdle && !iv.buf.empty() &&
          !iv.buf.front().flit.head) {
        return fail("idle VC with non-head front flit");
      }
      if (iv.state == VcState::kActive && !iv.out_is_ejection) {
        if (iv.out_port < 0 || iv.out_vc < 0) return fail("active without VC");
        const OutputVc& ov =
            out_[static_cast<std::size_t>(flat(iv.out_port, iv.out_vc))];
        if (ov.owner != flat(p, v)) return fail("ownership mismatch");
      }
    }
    if (p < n_network_ports_) {
      for (int v = 0; v < cfg_.vcs; ++v) {
        const OutputVc& ov = out_[static_cast<std::size_t>(flat(p, v))];
        if (ov.credits < 0 || ov.credits > cfg_.buffer_depth) {
          return fail("credit out of range");
        }
        // Owners are exactly the active heads routed here: the credit
        // edges re-arm grantable bits through this link.
        if (ov.owner >= 0) {
          const InputVc& owner = in_[static_cast<std::size_t>(ov.owner)];
          if (owner.state != VcState::kActive || owner.out_is_ejection ||
              owner.out_port != static_cast<int>(p) || owner.out_vc != v) {
            return fail("output VC owned by a non-requester");
          }
        }
      }
    }

    // Request bit <=> kActive toward p; grantable bit <=> request bit and
    // credits > 0; the per-port counts are the masks' popcounts.
    std::size_t requests = 0;
    std::size_t grantable = 0;
    for (std::size_t idx = 0; idx < in_.size(); ++idx) {
      const InputVc& iv = in_[idx];
      const std::size_t w = word_of(p, static_cast<int>(idx));
      const std::uint64_t bit = bit_of(static_cast<int>(idx));
      const bool req = (sa_request_mask_[w] & bit) != 0;
      const bool grant = (sa_grant_mask_[w] & bit) != 0;
      const bool active_here =
          iv.state == VcState::kActive && iv.out_port == static_cast<int>(p);
      if (req != active_here) return fail("request bit out of sync");
      const bool has_credits =
          active_here &&
          out_[static_cast<std::size_t>(flat(p, iv.out_vc))].credits > 0;
      if (grant != has_credits) return fail("grantable bit out of sync");
      requests += req ? 1 : 0;
      grantable += grant ? 1 : 0;
    }
    if (requests != sa_req_count_[p] || grantable != sa_grant_count_[p]) {
      return fail("per-port request/grantable count out of sync");
    }
    starved += requests - grantable;
    const bool port_bit = ((sa_port_mask_[p >> 6] >> (p & 63)) & 1) != 0;
    if (port_bit != (grantable != 0)) {
      return fail("SA port bit out of sync with grantable count");
    }
  }
  if (starved != sa_starved_) return fail("starved-requester sum out of sync");
  if (n_reserved_ != 0) return fail("same-step reservation outlived its step");
  return true;
}

}  // namespace hm::noc
