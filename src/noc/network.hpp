// The assembled inter-chiplet network: one router per chiplet (vertex), two
// directed channels per D2D link (edge), and `endpoints_per_chiplet`
// endpoints per router, exactly as the paper configures BookSim2
// (Sec. VI-A). Pure transport: traffic generation lives in the Simulator.
//
// A Network is the mutable per-probe state (buffers, credits, statistics)
// built on top of an immutable shared TopologyContext (graph, routing
// tables, port maps). Routers, endpoints and channels are stored by value
// in contiguous vectors — sized exactly and wired once during construction,
// so the per-cycle step() walks flat arrays instead of chasing unique_ptr
// indirections, and every ring buffer is pre-sized to its occupancy bound
// (steady-state stepping does no heap allocation).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "noc/channel.hpp"
#include "noc/config.hpp"
#include "noc/endpoint.hpp"
#include "noc/router.hpp"
#include "noc/routing.hpp"
#include "noc/rng.hpp"
#include "noc/topology.hpp"

namespace hm::noc {

/// Degraded routing view installed after faults: routing tables built on the
/// post-fault live graph, plus the translations back to the physical
/// network. `live_id` maps physical router ids to live-graph ids (kDead for
/// offline routers); `port_map[r]` maps a live-graph port of router r back
/// to the physical port index. Built and owned by the fault controller; the
/// Network borrows it and pushes the per-router raw pointers down (it must
/// outlive the installation).
struct DegradedRouting {
  static constexpr std::uint32_t kDead = 0xFFFFFFFFu;
  std::shared_ptr<const TopologyContext> topo;
  std::vector<std::uint32_t> live_id;
  std::vector<std::vector<std::uint8_t>> port_map;
};

/// A ready-to-run network instance built from an arrangement graph.
class Network {
 public:
  /// Builds routers, endpoints and channels on a shared topology (connected,
  /// >= 1 vertex). The context is held read-only for the network's lifetime;
  /// any number of concurrent networks may share one context.
  Network(std::shared_ptr<const TopologyContext> topo, const SimConfig& cfg);

  /// Convenience: acquires the shared context for `g` (building routing
  /// tables only when no live context for an equal graph exists).
  Network(const graph::Graph& g, const SimConfig& cfg);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Executes one cycle: channel delivery, endpoint injection, router step.
  /// With cfg.skip_idle (the default) only components that can make
  /// progress are visited (active-set worklists, plus the link arrival
  /// wheel: a link is visited only on cycles something arrives on it);
  /// otherwise every link, endpoint and router is swept densely. In
  /// skip-idle mode `now` must advance by exactly one between steps while
  /// anything is in flight. Both modes produce bit-identical
  /// results (test_active_set pins this) — the dense sweep stays as the
  /// reference implementation.
  void step(Cycle now);

  /// Enqueues a packet at endpoint `e` (false when its source queue is
  /// full) and arms the endpoint's active-set entry. All traffic must enter
  /// through here (or through a Simulator run): a direct
  /// endpoint().try_enqueue() would leave a skip-idle endpoint dormant.
  bool offer_packet(std::size_t e, const Packet& p);

  /// Re-seeds every router's arbitration stream from `base` (see
  /// Router::seed_rng). Simulator calls this right after taking a lease:
  /// the arena reuse key deliberately excludes the seed, so a recycled
  /// network may carry stale router streams.
  void seed_rngs(std::uint64_t base);

  /// True when nothing can happen until new traffic is offered: no buffered
  /// or in-flight flits, no queued packets, no in-flight credits. O(1) in
  /// skip-idle mode (all worklists and the link wheel empty), O(N) scan in
  /// dense mode. The
  /// Simulator fast-forwards quiescent stretches to the traffic source's
  /// next event cycle.
  [[nodiscard]] bool quiescent() const;

  /// Packets delivered whose generation time fell inside their sink's
  /// measurement window (O(1) running counter; see Endpoint::receive_flit).
  [[nodiscard]] std::uint64_t tagged_delivered() const noexcept {
    return tagged_delivered_;
  }

  /// Rewinds the network to its freshly-constructed state without touching
  /// any allocation: rings are emptied in place, VC/credit state and every
  /// statistic rewound, and the packet table cleared. A reset network is
  /// bit-identical to a new Network(topo, cfg) (test_arena pins this);
  /// SimulationArena uses it to recycle networks across probes.
  void reset();

  [[nodiscard]] std::size_t num_routers() const noexcept {
    return routers_.size();
  }
  [[nodiscard]] std::size_t num_endpoints() const noexcept {
    return endpoints_.size();
  }
  [[nodiscard]] Endpoint& endpoint(std::size_t e) { return endpoints_[e]; }
  [[nodiscard]] const Endpoint& endpoint(std::size_t e) const {
    return endpoints_[e];
  }
  [[nodiscard]] Router& router(std::size_t r) { return routers_[r]; }
  [[nodiscard]] const RoutingTables& tables() const noexcept {
    return topo_->tables();
  }
  [[nodiscard]] const TopologyContext& topology() const noexcept {
    return *topo_;
  }
  [[nodiscard]] const std::shared_ptr<const TopologyContext>&
  topology_ptr() const noexcept {
    return topo_;
  }
  [[nodiscard]] const SimConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const PacketTable& packets() const noexcept {
    return packets_;
  }

  /// Flits buffered in routers plus flits on channels (conservation checks).
  [[nodiscard]] std::size_t flits_in_network() const;

  /// Sum of injected / ejected flits over all endpoints.
  [[nodiscard]] std::uint64_t total_flits_injected() const;
  [[nodiscard]] std::uint64_t total_flits_ejected() const;

  /// Network-wide hot-path counters since construction/reset: router stats
  /// summed (HWMs maxed) over all routers, plus the source-queue HWM over
  /// all endpoints. ~Simulator flushes this into the telemetry registry.
  struct HotStats {
    Router::HotStats routers;           ///< summed; ring_hwm is the max
    std::uint64_t source_queue_hwm = 0; ///< max endpoint queue occupancy
    std::uint64_t active_router_hwm = 0;  ///< max routers stepped in a cycle
    std::uint64_t router_steps = 0;       ///< router step() calls executed
    std::uint64_t cycles_stepped = 0;     ///< Network::step() calls
  };
  [[nodiscard]] HotStats hot_stats() const;

  /// Runs all router invariant checks; false + reason on violation.
  [[nodiscard]] bool invariants_ok(std::string* why = nullptr) const;

  // --- Fault injection (cold path; driven by faults::FaultController) -----

  /// Accounting of one fault transition. Every flit is conserved:
  /// injected == ejected + in-network + dropped holds before and after
  /// (invariants_ok checks it).
  struct FaultOutcome {
    std::uint64_t flits_dropped = 0;     ///< flits excised network-wide
    std::uint64_t packets_lost = 0;      ///< distinct packets losing flits
    std::uint64_t packets_flushed = 0;   ///< queued packets dropped unsent
    std::uint64_t packets_rerouted = 0;  ///< committed heads sent back to VA
  };

  /// Applies one batch of simultaneous fault events. `kill_links` /
  /// `repair_links` are undirected physical edges (currently wired /
  /// currently killed respectively); `router_online` is the full
  /// post-transition routable set (size num_routers) — routers leaving it
  /// are powered off wholesale (state excised, endpoints dead), routers
  /// re-entering come back with fresh flow state. In-flight flits of
  /// severed or unroutable packets are excised deterministically with
  /// upstream credits refunded, zero-progress allocations toward dead
  /// ports are revoked for re-routing, and the active-set worklists are
  /// rebuilt exactly. Install the matching DegradedRouting separately
  /// (possibly later: reconvergence window).
  FaultOutcome fault_transition(
      const std::vector<std::pair<graph::NodeId, graph::NodeId>>& kill_links,
      const std::vector<std::pair<graph::NodeId, graph::NodeId>>& repair_links,
      const std::vector<char>& router_online);

  /// Installs (nullptr: clears) the degraded routing view on every router.
  void set_degraded_routing(const DegradedRouting* dr);

  [[nodiscard]] bool endpoint_alive(std::size_t e) const {
    return endpoints_[e].alive();
  }
  [[nodiscard]] bool router_online(graph::NodeId r) const {
    return router_online_.empty() || router_online_[r] != 0;
  }
  /// Flits excised by fault transitions since construction/reset.
  [[nodiscard]] std::uint64_t flits_dropped() const noexcept {
    return flits_dropped_;
  }

 private:
  struct RouterLink {
    FlitChannel flits;      ///< from -> to
    CreditChannel credits;  ///< to -> from (credit returns)
    graph::NodeId from = 0;
    graph::NodeId to = 0;
    std::size_t out_port_at_from = 0;
    std::size_t in_port_at_to = 0;
  };
  struct EndpointChannels {
    FlitChannel injection;      ///< endpoint -> router
    CreditChannel inj_credits;  ///< router -> endpoint
    FlitChannel ejection;       ///< router -> endpoint
  };

  void step_dense(Cycle now);
  void step_active(Cycle now);
  /// Re-derives every worklist and the link wheel from scratch (exact
  /// post-fault state).
  void rebuild_worklists();

  /// Arrival cycle of the oldest flit or credit on a busy link.
  [[nodiscard]] static Cycle link_front(const RouterLink& link) {
    if (link.flits.in_flight() == 0) return link.credits.next_arrival();
    if (link.credits.in_flight() == 0) return link.flits.next_arrival();
    return std::min(link.flits.next_arrival(), link.credits.next_arrival());
  }
  /// Puts busy link `li` on the wheel slot of its front arrival.
  void slot_link(std::uint32_t li) {
    const std::size_t s =
        static_cast<std::size_t>(link_front(links_[li])) & wheel_mask_;
    wheel_next_[li] = wheel_head_[s];
    wheel_head_[s] = li;
    ++wheel_links_;
  }
  /// Empties the wheel (every link off it).
  void clear_wheel() {
    std::fill(wheel_head_.begin(), wheel_head_.end(), kNoLink);
    wheel_links_ = 0;
  }

  /// Membership-flagged worklist push (no-op when already a member).
  static void arm(std::vector<std::uint32_t>& list, std::vector<char>& flag,
                  std::size_t idx) {
    if (!flag[idx]) {
      flag[idx] = 1;
      list.push_back(static_cast<std::uint32_t>(idx));
    }
  }

  SimConfig cfg_;
  std::shared_ptr<const TopologyContext> topo_;
  /// Cold per-packet records (SoA split); declared before routers/endpoints
  /// so its address is valid while they are wired. Stable: Network is
  /// neither copyable nor movable.
  PacketTable packets_;
  std::vector<Router> routers_;
  std::vector<Endpoint> endpoints_;
  std::vector<RouterLink> links_;
  std::vector<EndpointChannels> ep_channels_;

  // --- Active-set worklists (skip-idle stepping) --------------------------
  // A component sits on its worklist exactly while it can make progress:
  // endpoint channels with anything in flight, routers with buffered
  // flits, endpoints with queued packets. Each list carries a parallel
  // membership flag so arming is O(1) and idempotent; step_active compacts
  // the lists in place as components drain. Re-arming happens at the
  // producer: a router step arms exactly the channels its ports pushed into
  // this step (the router's SA scratch records pushed ports; the target
  // tables below map ports to worklist entries), channel delivery arms the
  // receiving router, and offer_packet arms the endpoint.
  //
  // Router links are not on a worklist but on an arrival wheel (a hashed
  // timing wheel): a link with anything in flight sits on exactly one slot,
  // the one of its front arrival min(flits front, credits front). Slots are
  // intrusive lists threaded through wheel_next_. The wheel has a power of
  // two of at least link_latency + 1 slots, and every front lies in
  // (now, now + link_latency] between steps, so a slot never holds two
  // different arrival cycles and re-slotting never lands on the slot being
  // delivered. A 27-cycle D2D link with one flit in flight is visited once,
  // at its arrival, instead of on each of its 27 cycles. Stepping must be
  // on consecutive cycles while anything is in flight (the Simulator
  // fast-forwards only quiescent stretches).
  static constexpr std::uint32_t kNoLink = 0xFFFFFFFFu;
  std::vector<std::uint32_t> wheel_head_;  ///< per slot: first link or kNoLink
  std::vector<std::uint32_t> wheel_next_;  ///< per link: next link in its slot
  std::size_t wheel_mask_ = 0;             ///< slot count - 1
  std::size_t wheel_links_ = 0;            ///< links on the wheel
  std::vector<std::uint32_t> active_chans_;
  std::vector<char> chan_active_;
  std::vector<std::uint32_t> active_routers_;
  std::vector<char> router_active_;
  std::vector<std::uint32_t> active_eps_;
  std::vector<char> ep_active_;
  /// Port -> worklist-target tables, built once at wiring time. For router
  /// r and port p, out_flit_target_[r][p] is the worklist entry to arm when
  /// that port pushes a flit (a link for network ports, an endpoint-channel
  /// ejection for endpoint ports) and in_credit_target_[r][p] the entry
  /// armed when a grant on that input port returns a credit (the reverse
  /// link, or the endpoint's injection-credit channel). Endpoint-channel
  /// entries carry kChanBit; links are plain indices.
  static constexpr std::uint32_t kChanBit = 0x80000000u;
  std::vector<std::vector<std::uint32_t>> out_flit_target_;
  std::vector<std::vector<std::uint32_t>> in_credit_target_;

  // --- Fault state (empty/zero until the first fault_transition) ----------
  std::vector<char> router_online_;     ///< empty == everything online
  std::uint64_t flits_dropped_ = 0;     ///< excised flits (conservation)
  bool fault_dirty_ = false;            ///< reset() must rewind fault wiring

  std::uint64_t tagged_delivered_ = 0;   ///< in-window packet completions
  std::uint64_t active_router_hwm_ = 0;  ///< max |active_routers_| per step
  std::uint64_t router_steps_ = 0;       ///< router step() calls executed
  std::uint64_t cycles_stepped_ = 0;     ///< Network::step() calls
};

}  // namespace hm::noc
