// Input-queued virtual-channel router with credit-based wormhole flow
// control, modelled after BookSim2's router (paper Sec. VI-A: 3-cycle router
// latency, 8 VCs, 8-flit buffers).
//
// Pipeline per packet: route computation (RC) when the head flit reaches the
// buffer front, VC allocation (VA) of an output VC, then per-flit switch
// allocation (SA) and traversal. Heads prefer minimal adaptive VCs (1..V-1)
// and fall back to the up*/down* escape VC 0; a head that holds an output VC
// with zero credits and has not yet sent any flit releases it and re-enters
// VA, so a blocked packet can always reach the deadlock-free escape network
// (Duato's protocol, conservative stay-on-escape variant).
//
// Hot-path layout: input and output VC state lives in flat [port*vcs + vc]
// arrays, flit buffers are fixed-capacity rings sized to buffer_depth, and
// all per-cycle scratch is preallocated — a steady-state step() does no heap
// allocation. Flits are 8-byte routing words (see flit.hpp); the only cold
// data a router ever needs — the destination endpoint for ejection-port
// routing — is looked up once per packet in the Network's PacketTable when
// the head flit is route-computed.
//
// Busy path: at saturation most requesters are blocked, so every stage
// walks bitmasks over flat input-VC ids that hold exactly the VCs able to
// act, visiting them in the order the former full scans did:
//  - occupied_: the VC buffers a flit (set on receive_flit, cleared when a
//    grant or fault excision empties the buffer).
//  - idle_mask_ / needs_vc_mask_: mirrors of InputVc::state, updated by
//    set_state(). RC walks occupied & idle (fresh heads), VA walks
//    needs-VC heads (always buffered).
//  - request (per output port): the VC is kActive toward that port. Set
//    when RC routes a head to an ejection port or VA allocates an output
//    VC; cleared on the tail grant, on revocation and by fault excision.
//  - grantable (per output port): request AND the VC's output credits > 0.
//    Set with the request when credits are available, and on the 0->1
//    credit edge (receive_credit, fault_refund_credit) for the output VC's
//    single owner; cleared with the request, on the 1->0 edge of an SA
//    grant and by fault_kill_port. Ejection outputs have unbounded credits,
//    so their requesters are always grantable.
//  - unsent_mask_: kActive on a network port with no flit sent yet (set by
//    VA, cleared by the first grant and with the request).
//  - sa_port_mask_ (over output ports): the port's grantable count is
//    non-zero. Kept by every grantable-count edge above.
//  - sa_starved_: the sum over ports of requests - grantable, kept by the
//    same edges plus the request edges.
// SA makes one pass over the output ports in sa_port_mask_, circularly
// from the cycle's offset, and per port walks grantable & occupied &
// ~(VCs of input ports already matched this cycle) from the round-robin
// pointer; the first requester whose head is ready wins. The skipped ports
// and requesters could never win — no grantable requester, no credits, an
// empty buffer or a taken input port — so every grant and round-robin
// update equals a walk over all ports and requesters. Port p's counts
// change only inside p's own grant, after the pass reached p, so
// sa_starved_ at SA entry is exactly the per-port credit-stall tally a
// full walk would add. Revocation returns at once when sa_starved_ is zero
// (the common case below saturation); otherwise it walks request &
// ~grantable & unsent on network ports, i.e. only credit-starved heads that
// may still re-route; each revoke touches only its own input VC, its own
// output VC and its port's free count, so walk order cannot matter.
// Finally, a ready head that VA hands a zero-credit output VC would be
// revoked at the end of the same step with certainty (SA cannot grant it
// and no credit arrives mid-step), so VA records that as a same-step
// reservation instead: the output VC stays owned (and free_adaptive_
// debited) for the rest of the VA pass, is released at the revoke point,
// and the head never enters the masks. Every VA attempt still makes its
// RNG draw in the same order.
// test_router_busy_path pins all of this against fingerprints recorded
// from the full-scan router, and invariants_ok checks every mask.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "noc/channel.hpp"
#include "noc/config.hpp"
#include "noc/flit.hpp"
#include "noc/ring_buffer.hpp"
#include "noc/routing.hpp"
#include "noc/rng.hpp"

namespace hm::noc {

/// One router; ports 0..deg-1 connect to neighbour routers (in the order of
/// graph.neighbors(id)), ports deg..deg+E-1 connect to the local endpoints.
class Router {
 public:
  /// Hot-path event counters, kept as plain members (bumping them is a
  /// register increment, cheap enough to run unconditionally) and flushed
  /// into the telemetry registry by ~Simulator when telemetry is enabled.
  /// Zeroed by reset() like every other mutable field.
  struct HotStats {
    std::uint64_t flits_routed = 0;       ///< switch grants (flit traversals)
    std::uint64_t va_stall_cycles = 0;    ///< VC-allocation failures
    /// Per SA call and arbitrated output port: grantable, buffered
    /// requesters whose input port had already won a grant this cycle.
    std::uint64_t sa_conflict_stalls = 0;
    /// Credit-starved requester-cycles: per SA call, requesters whose output
    /// VC has zero credits (requests - grantable, summed over ports), plus
    /// the heads VA reserved a zero-credit VC for in the same step.
    std::uint64_t sa_credit_stalls = 0;
    std::uint64_t heads_revoked = 0;      ///< escape-fallback revocations
    std::uint64_t ring_hwm = 0;           ///< max input RingQueue occupancy
  };

  /// `tables` must outlive the router (it lives in the shared
  /// TopologyContext that the owning Network keeps alive); `packets` is the
  /// owning Network's packet table (read at RC for ejection routing). A
  /// null `packets` is only valid for routers that never eject, e.g. the
  /// wiring-validation unit tests.
  Router(std::uint32_t id, const SimConfig& cfg, const RoutingTables* tables,
         const PacketTable* packets = nullptr);

  /// Wires output port `port`: flits sent there arrive after `latency`.
  void wire_output(std::size_t port, FlitChannel* channel, int latency);

  /// Wires the credit return path of input port `port` (credits for freed
  /// buffer slots are sent there after `latency`).
  void wire_credit_return(std::size_t port, CreditChannel* channel,
                          int latency);

  /// Delivers a flit into input port `port`, VC `f.vc`.
  void receive_flit(std::size_t port, Flit f, Cycle now);

  /// Delivers a credit for output port `port`, VC `vc`.
  void receive_credit(std::size_t port, int vc);

  /// One cycle: RC, VA, SA (+ escape-fallback revocation). Arbitration
  /// draws come from the router's own RNG stream (seeded from the config
  /// seed and the router id), and the fair-allocation round-robin offsets
  /// are derived from `now` — so a step on an empty router is an observable
  /// no-op and the active-set stepper can skip drained routers without
  /// perturbing any later draw or arbitration decision.
  void step(Cycle now);

  /// Re-seeds the router's RNG stream as derive_seed(derive_seed(base,
  /// router-stream salt), id). Called by Network::seed_rngs when a Simulator
  /// adopts a leased network whose cached config carries a stale seed.
  void seed_rng(std::uint64_t base);

  /// Rewinds every mutable field to the freshly-constructed state (arena
  /// reuse). Must stay exhaustive: a reset router has to be bit-identical
  /// to a new one (test_arena pins this).
  void reset();

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] std::size_t network_ports() const noexcept {
    return n_network_ports_;
  }
  [[nodiscard]] std::size_t total_ports() const noexcept { return n_ports_; }

  /// Total flits currently buffered (for conservation checks; O(VCs) scan).
  [[nodiscard]] std::size_t buffered_flits() const;

  /// O(1) buffered-flit count, maintained incrementally. Zero is exactly
  /// the active-set idle criterion: a router with no buffered flits has no
  /// RC/VA/SA work and its step is an observable no-op (pending credits
  /// only top counters up; they cannot trigger an action on their own).
  [[nodiscard]] std::size_t buffered_flit_count() const noexcept {
    return buffered_;
  }

  [[nodiscard]] const HotStats& hot_stats() const noexcept { return stats_; }

  /// One switch grant: a flit moved from `in_port` (which returned a
  /// credit upstream when a credit channel is wired) to `out_port` (which
  /// pushed it into its channel).
  struct Grant {
    std::uint16_t in_port = 0;
    std::uint16_t out_port = 0;
  };

  /// This step's grants, valid immediately after step(). The active-set
  /// stepper arms exactly the channels these ports feed instead of
  /// re-scanning every channel adjacent to the router.
  [[nodiscard]] std::span<const Grant> grants() const noexcept {
    return {grants_.data(), n_grants_};
  }

  /// Validates internal invariants (buffer bounds, credit bounds, ownership
  /// consistency). Returns false and fills `why` on violation.
  [[nodiscard]] bool invariants_ok(std::string* why = nullptr) const;

  // --- Fault-injection hooks (cold path; driven by Network) -----------------

  /// Installs (or, with nullptrs, removes) a degraded routing view: lookups
  /// go through `tables` with this router's and the destination's ids
  /// translated by `live_id`, and the returned ports translated back to
  /// physical ports by `port_map`. The pointed-to storage is owned by the
  /// Network and outlives the view.
  void set_degraded(const RoutingTables* tables,
                    const std::uint32_t* live_id,
                    const std::uint8_t* port_map);

  /// Kills network port `port`: output and credit-return channels are
  /// detached (SA already skips null output channels) and the output VC
  /// credits and free-adaptive count drop to zero so no new allocation can
  /// target the port. Callers must excise in-flight state afterwards
  /// (fault_excise) — the port's output VCs may still have owners here.
  void fault_kill_port(std::size_t port);

  /// Restores a killed port after a repair: rewires the channels and
  /// refills credits / free-adaptive to the fresh-build state. The port's
  /// output VCs must be ownerless (guaranteed after fault_excise).
  void fault_restore_port(std::size_t port, FlitChannel* out, int out_latency,
                          CreditChannel* credit, int credit_latency);

  /// Refunds one output-VC credit (upstream side of an excised flit).
  void fault_refund_credit(std::size_t port, int vc);

  /// Packets that already sent flits toward a now-dead output port (the
  /// wormhole body is severed mid-link): appended to `out` so the caller
  /// can poison them network-wide. Zero-progress allocations are left for
  /// fault_excise to revoke.
  void fault_collect_committed(const std::function<bool(std::size_t)>& dead_out,
                               std::vector<std::uint32_t>* out) const;

  /// Every packet with state in this router (buffered flits or a tracked
  /// in-progress transmission) — used to poison a killed router wholesale.
  void fault_collect_all(std::vector<std::uint32_t>* out) const;

  struct FaultExcision {
    std::uint64_t flits_removed = 0;
    std::uint64_t packets_rerouted = 0;
  };

  /// Removes every buffered flit whose packet `poisoned(id)` approves,
  /// resets the state machines of the affected input VCs, and revokes
  /// zero-progress allocations toward `dead_out` ports (those packets
  /// re-route on the degraded tables). `refund(in_port, vc)` fires once per
  /// removed flit so the Network can credit the upstream sender; releases
  /// never re-grow free_adaptive_ of a dead output port.
  FaultExcision fault_excise(
      const std::function<bool(std::uint32_t)>& poisoned,
      const std::function<bool(std::size_t)>& dead_out,
      const std::function<void(std::size_t, int)>& refund);

 private:
  enum class VcState : std::uint8_t { kIdle, kNeedsVc, kActive };

  /// A buffered flit: the 8-byte routing word plus the cycle it becomes
  /// eligible for switch allocation (arrival + router_latency).
  struct BufFlit {
    Flit flit;
    Cycle ready_time = 0;
  };

  struct InputVc {
    RingQueue<BufFlit> buf;
    VcState state = VcState::kIdle;
    int out_port = -1;
    int out_vc = -1;
    bool out_is_ejection = false;
    bool escape = false;          ///< current packet leaves via escape VC
    std::uint8_t next_phase = 0;  ///< up*/down* phase after the escape hop
    int flits_sent = 0;           ///< flits of the current packet sent on
    int blocked_cycles = 0;       ///< VA failures since the header arrived
    /// Packet being routed while state != kIdle. The buffer can drain to
    /// empty mid-packet (body still upstream), so fault excision needs the
    /// id recorded at route compute, not the front flit.
    std::uint32_t cur_packet = 0;
  };

  struct OutputVc {
    int credits = 0;
    int owner = -1;  ///< flat input-VC index holding this VC, or -1
  };

  /// An output VC held by a same-step reservation (see the header comment).
  struct Reservation {
    std::uint32_t port = 0;
    int vc = 0;
  };

  [[nodiscard]] int flat(std::size_t port, int vc) const {
    return static_cast<int>(port) * cfg_.vcs + vc;
  }
  [[nodiscard]] std::size_t word_of(std::size_t out_p, int iv_flat) const {
    return out_p * mask_words_ + (static_cast<std::size_t>(iv_flat) >> 6);
  }
  static std::uint64_t bit_of(int iv_flat) { return 1ULL << (iv_flat & 63); }

  /// Every VC state change goes through here so the per-state masks mirror
  /// InputVc::state exactly.
  void set_state(InputVc& iv, int iv_flat, VcState s) {
    const std::size_t w = static_cast<std::size_t>(iv_flat) >> 6;
    const std::uint64_t b = bit_of(iv_flat);
    idle_mask_[w] =
        s == VcState::kIdle ? idle_mask_[w] | b : idle_mask_[w] & ~b;
    needs_vc_mask_[w] =
        s == VcState::kNeedsVc ? needs_vc_mask_[w] | b : needs_vc_mask_[w] & ~b;
    iv.state = s;
  }
  void init_idle_mask();

  /// Request/grantable bookkeeping (see the header comment for the edges).
  /// Every grantable-count change goes through grantable_up/_down, which
  /// keep the SA port mask and the starved-requester sum in step.
  void grantable_up(std::size_t p) {
    if (sa_grant_count_[p]++ == 0) sa_port_mask_[p >> 6] |= 1ULL << (p & 63);
    --sa_starved_;
  }
  void grantable_down(std::size_t p) {
    if (--sa_grant_count_[p] == 0) {
      sa_port_mask_[p >> 6] &= ~(1ULL << (p & 63));
    }
    ++sa_starved_;
  }
  void mark_request(std::size_t out_p, int out_vc, int iv_flat) {
    const std::size_t w = word_of(out_p, iv_flat);
    sa_request_mask_[w] |= bit_of(iv_flat);
    ++sa_req_count_[out_p];
    ++sa_starved_;
    if (out_[static_cast<std::size_t>(flat(out_p, out_vc))].credits > 0) {
      sa_grant_mask_[w] |= bit_of(iv_flat);
      grantable_up(out_p);
    }
  }
  void clear_request(std::size_t out_p, int iv_flat) {
    unsent_mask_[static_cast<std::size_t>(iv_flat) >> 6] &= ~bit_of(iv_flat);
    const std::size_t w = word_of(out_p, iv_flat);
    if ((sa_grant_mask_[w] & bit_of(iv_flat)) != 0) {
      sa_grant_mask_[w] &= ~bit_of(iv_flat);
      grantable_down(out_p);
    }
    sa_request_mask_[w] &= ~bit_of(iv_flat);
    --sa_req_count_[out_p];
    --sa_starved_;
  }
  /// 0->1 credit edge of output VC (port, vc): its owner becomes grantable.
  void on_credit_restored(std::size_t port, int vc) {
    const int owner = out_[static_cast<std::size_t>(flat(port, vc))].owner;
    if (owner < 0) return;
    sa_grant_mask_[word_of(port, owner)] |= bit_of(owner);
    grantable_up(port);
  }

  /// Visits the set bits of word(0..words-1) in circular bit order
  /// starting at `start`: the start word's bits >= start, the other words
  /// wrapping around, then the start word's low bits. Stops at and returns
  /// the first index for which visit(index) is true; -1 otherwise.
  template <class Word, class Visit>
  static int walk_circular(int start, std::size_t words, Word word,
                           Visit visit);

  void route_compute(InputVc& iv, int iv_flat);
  void try_allocate_vc(InputVc& iv, int iv_flat);
  void claim_vc(InputVc& iv, int iv_flat, std::size_t port, int vc,
                bool escape, std::uint8_t next_phase);
  void switch_allocate(Cycle now);
  void grant_one(std::size_t out_p, Cycle now);
  void revoke_blocked_heads();

  std::uint32_t id_;
  SimConfig cfg_;
  const RoutingTables* tables_;
  const PacketTable* packets_;

  // Degraded routing view (all null when healthy — the single null check in
  // VA is the only fault cost on the hot path). See set_degraded().
  const RoutingTables* deg_tables_ = nullptr;
  const std::uint32_t* deg_live_ = nullptr;
  const std::uint8_t* deg_port_map_ = nullptr;

  std::size_t n_network_ports_;
  std::size_t n_ports_;

  std::vector<InputVc> in_;   ///< flat [port*vcs + vc]
  std::vector<OutputVc> out_; ///< flat [port*vcs + vc]
  std::vector<FlitChannel*> out_channel_;
  std::vector<int> out_latency_;
  std::vector<CreditChannel*> credit_channel_;
  std::vector<int> credit_latency_;

  // Round-robin state for fair allocation. The VA and SA-output starting
  // offsets are derived from the cycle number (now % size) instead of being
  // incremented per step, so a router skipped while idle resumes with
  // exactly the offsets a densely-stepped router would have. sa_in_rr_
  // advances only on grants, which cannot happen while idle.
  std::vector<int> sa_in_rr_;  ///< per output port, over flat input-VC ids

  // Preallocated switch-allocation scratch (per-cycle matching state).
  std::vector<Grant> grants_;  ///< capacity: one per output port
  std::size_t n_grants_ = 0;
  /// Flat input-VC ids of the input ports matched so far this cycle.
  std::vector<std::uint64_t> sa_in_used_mask_;
  /// Per input port: its VCs' flat ids ([port * mask_words_ + word]).
  std::vector<std::uint64_t> port_vc_mask_;

  // Per-output-port bitmasks over flat input-VC ids, [out_port *
  // mask_words_ + word], with their popcounts (see the header comment).
  std::size_t mask_words_ = 1;
  std::vector<std::uint64_t> sa_request_mask_;
  std::vector<std::uint64_t> sa_grant_mask_;
  std::vector<std::uint16_t> sa_req_count_;
  std::vector<std::uint16_t> sa_grant_count_;
  /// Bitmask over output ports with sa_grant_count_ != 0 ([port >> 6]),
  /// the only ports SA visits.
  std::vector<std::uint64_t> sa_port_mask_;
  /// Sum over all ports of sa_req_count_ - sa_grant_count_: the
  /// credit-starved requesters SA charges to sa_credit_stalls each call.
  std::size_t sa_starved_ = 0;

  /// Bitmasks over flat input-VC ids: the VC buffers at least one flit;
  /// its state is kIdle; its state is kNeedsVc; it holds a network output
  /// VC and has sent no flit yet (the only heads revocation may release).
  std::vector<std::uint64_t> occupied_;
  std::vector<std::uint64_t> idle_mask_;
  std::vector<std::uint64_t> needs_vc_mask_;
  std::vector<std::uint64_t> unsent_mask_;

  /// Per output port: free adaptive output VCs (owner < 0 among VCs
  /// 1..vcs-1). Lets a blocked header skip a fully-owned port with one load
  /// instead of vcs-1 owner probes every VA cycle.
  std::vector<int> free_adaptive_;

  /// Same-step reservations of this step's VA pass (capacity: one per
  /// input VC); empty between steps.
  std::vector<Reservation> reserved_;
  std::size_t n_reserved_ = 0;

  Cycle now_ = 0;  ///< updated by step(); used for SA readiness checks

  /// Per-router arbitration stream: adaptive-VC rotation draws come from
  /// here instead of a network-wide shared Rng, so skipping an idle router
  /// cannot shift any other router's draws. rng_seed_ remembers the seed so
  /// reset() rewinds the stream bit-identically.
  Rng rng_;
  std::uint64_t rng_seed_ = 0;

  std::size_t buffered_ = 0;  ///< incrementally maintained buffered flits

  HotStats stats_;
};

}  // namespace hm::noc
