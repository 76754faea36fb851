#include "noc/network.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace hm::noc {

Network::Network(const graph::Graph& g, const SimConfig& cfg)
    : Network(TopologyContext::acquire(g), cfg) {}

Network::Network(std::shared_ptr<const TopologyContext> topo,
                 const SimConfig& cfg)
    : cfg_(cfg), topo_(std::move(topo)) {
  if (topo_ == nullptr) {
    throw std::invalid_argument("Network: null topology context");
  }
  cfg_.validate();
  const graph::Graph& g = topo_->graph();
  const std::size_t n = g.node_count();
  const std::size_t eps = static_cast<std::size_t>(cfg_.endpoints_per_chiplet);
  if (n * eps > 0xFFFF) {
    throw std::invalid_argument("Network: endpoint ids must fit in 16 bits");
  }

  // All storage is by value: reserve exact element counts up front so the
  // channel/router addresses taken during wiring stay valid.
  routers_.reserve(n);
  for (graph::NodeId r = 0; r < n; ++r) {
    routers_.emplace_back(r, cfg_, &topo_->tables(), &packets_);
  }

  // Two directed channels per undirected edge, wired from the context's
  // precomputed port map. A channel holds at most `latency` entries (one
  // push per cycle; older entries have been delivered), so pre-size to that.
  const auto directed = topo_->directed_links();
  links_.resize(directed.size());
  out_flit_target_.resize(n);
  in_credit_target_.resize(n);
  for (graph::NodeId r = 0; r < n; ++r) {
    out_flit_target_[r].assign(routers_[r].total_ports(), 0xFFFFFFFFu);
    in_credit_target_[r].assign(routers_[r].total_ports(), 0xFFFFFFFFu);
  }
  for (std::size_t i = 0; i < directed.size(); ++i) {
    const auto& d = directed[i];
    RouterLink& link = links_[i];
    link.from = d.from;
    link.to = d.to;
    link.out_port_at_from = d.out_port_at_from;
    link.in_port_at_to = d.in_port_at_to;
    link.flits.reserve(static_cast<std::size_t>(cfg_.link_latency) + 1);
    link.credits.reserve(static_cast<std::size_t>(cfg_.link_latency) + 1);
    routers_[link.from].wire_output(link.out_port_at_from, &link.flits,
                                    cfg_.link_latency);
    routers_[link.to].wire_credit_return(link.in_port_at_to, &link.credits,
                                         cfg_.link_latency);
    // A step of either end can (re-)fill this link: `from` pushes flits,
    // `to` pushes credit returns.
    out_flit_target_[link.from][link.out_port_at_from] =
        static_cast<std::uint32_t>(i);
    in_credit_target_[link.to][link.in_port_at_to] =
        static_cast<std::uint32_t>(i);
  }

  // Endpoints and their injection/ejection channels.
  endpoints_.reserve(n * eps);
  ep_channels_.resize(n * eps);
  for (std::size_t e = 0; e < n * eps; ++e) {
    const auto router = static_cast<graph::NodeId>(e / eps);
    const std::size_t local = e % eps;
    const std::size_t port = g.degree(router) + local;

    EndpointChannels& chans = ep_channels_[e];
    chans.injection.reserve(
        static_cast<std::size_t>(cfg_.injection_link_latency) + 1);
    chans.inj_credits.reserve(
        static_cast<std::size_t>(cfg_.injection_link_latency) + 1);
    chans.ejection.reserve(
        static_cast<std::size_t>(cfg_.ejection_link_latency) + 1);
    Endpoint& ep = endpoints_.emplace_back(static_cast<std::uint16_t>(e),
                                           cfg_, &packets_);
    ep.wire_injection(&chans.injection, cfg_.injection_link_latency);
    routers_[router].wire_credit_return(port, &chans.inj_credits,
                                        cfg_.injection_link_latency);
    routers_[router].wire_output(port, &chans.ejection,
                                 cfg_.ejection_link_latency);
    out_flit_target_[router][port] = kChanBit | static_cast<std::uint32_t>(e);
    in_credit_target_[router][port] = kChanBit | static_cast<std::uint32_t>(e);
  }

  // Worklist storage: membership flags plus capacity for the worst case
  // (every component active) so arming never allocates mid-run; the link
  // wheel is sized once here.
  wheel_mask_ =
      std::bit_ceil(static_cast<std::size_t>(cfg_.link_latency) + 1) - 1;
  wheel_head_.assign(wheel_mask_ + 1, kNoLink);
  wheel_next_.assign(links_.size(), kNoLink);
  chan_active_.assign(ep_channels_.size(), 0);
  router_active_.assign(routers_.size(), 0);
  ep_active_.assign(endpoints_.size(), 0);
  active_chans_.reserve(ep_channels_.size());
  active_routers_.reserve(routers_.size());
  active_eps_.reserve(endpoints_.size());
}

bool Network::offer_packet(std::size_t e, const Packet& p) {
  if (!endpoints_[e].try_enqueue(p)) return false;
  arm(active_eps_, ep_active_, e);
  return true;
}

void Network::seed_rngs(std::uint64_t base) {
  cfg_.seed = base;
  for (auto& r : routers_) r.seed_rng(base);
}

// HM_HOT: per-cycle simulation path — no allocation, no throw (hm_lint R3).
void Network::step(Cycle now) {
  if (cfg_.skip_idle) {
    step_active(now);
  } else {
    step_dense(now);
  }
  ++cycles_stepped_;
}

// HM_HOT: per-cycle simulation path — no allocation, no throw.
void Network::step_dense(Cycle now) {
  // 1. Deliver everything arriving this cycle.
  for (auto& link : links_) {
    while (link.flits.ready(now)) {
      routers_[link.to].receive_flit(link.in_port_at_to, link.flits.pop(),
                                     now);
    }
    while (link.credits.ready(now)) {
      routers_[link.from].receive_credit(link.out_port_at_from,
                                         link.credits.pop());
    }
  }
  const std::size_t eps = static_cast<std::size_t>(cfg_.endpoints_per_chiplet);
  for (std::size_t e = 0; e < endpoints_.size(); ++e) {
    EndpointChannels& chans = ep_channels_[e];
    const auto router = e / eps;
    const std::size_t port = routers_[router].network_ports() + e % eps;
    while (chans.injection.ready(now)) {
      routers_[router].receive_flit(port, chans.injection.pop(), now);
    }
    while (chans.inj_credits.ready(now)) {
      endpoints_[e].receive_credit(chans.inj_credits.pop());
    }
    while (chans.ejection.ready(now)) {
      if (endpoints_[e].receive_flit(chans.ejection.pop(), now)) {
        ++tagged_delivered_;
      }
    }
  }

  // 2. Endpoints inject.
  for (auto& ep : endpoints_) ep.inject(now);

  // 3. Routers advance.
  for (auto& r : routers_) r.step(now);
  router_steps_ += routers_.size();
  if (routers_.size() > active_router_hwm_) {
    active_router_hwm_ = routers_.size();
  }
}

// HM_HOT: per-cycle simulation path — no allocation, no throw.
void Network::step_active(Cycle now) {
  // Identical per-component operations and phase order as step_dense; only
  // components that can make progress are visited. Correctness rests on two
  // facts pinned by test_active_set: (a) a step / delivery sweep of an idle
  // component is an observable no-op (idle routers draw no RNG and mutate
  // nothing; empty channels deliver nothing; endpoints with empty queues
  // inject nothing), and (b) within a phase, operations on distinct
  // components commute (each delivery/step touches disjoint state), so the
  // worklist order standing in for index order cannot change the outcome.
  const std::size_t eps = static_cast<std::size_t>(cfg_.endpoints_per_chiplet);

  // 1a. Deliver link arrivals: only the links on this cycle's wheel slot
  // have anything arriving. Each is re-slotted at its next front arrival
  // or, drained, dropped. The slot is detached first, so a re-slot can
  // never extend the list being walked.
  const std::size_t slot = static_cast<std::size_t>(now) & wheel_mask_;
  std::uint32_t li = wheel_head_[slot];
  wheel_head_[slot] = kNoLink;
  while (li != kNoLink) {
    const std::uint32_t next = wheel_next_[li];
    RouterLink& link = links_[li];
    assert(link_front(link) == now);  // consecutive steps: nothing overdue
    --wheel_links_;
    while (link.flits.ready(now)) {
      routers_[link.to].receive_flit(link.in_port_at_to, link.flits.pop(),
                                     now);
      arm(active_routers_, router_active_, link.to);
    }
    while (link.credits.ready(now)) {
      // Credits top up output-VC counters but cannot start progress on
      // their own: any flit waiting for them is buffered downstream-side,
      // which already keeps its router on the worklist.
      routers_[link.from].receive_credit(link.out_port_at_from,
                                         link.credits.pop());
    }
    if (link.flits.in_flight() != 0 || link.credits.in_flight() != 0) {
      slot_link(li);
    }
    li = next;
  }

  // 1b. Deliver endpoint-channel arrivals.
  for (std::size_t i = 0; i < active_chans_.size();) {
    const std::uint32_t e = active_chans_[i];
    EndpointChannels& chans = ep_channels_[e];
    const std::size_t router = e / eps;
    const std::size_t port = routers_[router].network_ports() + e % eps;
    while (chans.injection.ready(now)) {
      routers_[router].receive_flit(port, chans.injection.pop(), now);
      arm(active_routers_, router_active_, router);
    }
    while (chans.inj_credits.ready(now)) {
      // An endpoint with queued packets is already on the worklist; one
      // with an empty queue has no use for the credit until new traffic
      // arrives (offer_packet arms it then).
      endpoints_[e].receive_credit(chans.inj_credits.pop());
    }
    while (chans.ejection.ready(now)) {
      if (endpoints_[e].receive_flit(chans.ejection.pop(), now)) {
        ++tagged_delivered_;
      }
    }
    if (chans.injection.in_flight() == 0 &&
        chans.inj_credits.in_flight() == 0 &&
        chans.ejection.in_flight() == 0) {
      chan_active_[e] = 0;
      active_chans_[i] = active_chans_.back();
      active_chans_.pop_back();
    } else {
      ++i;
    }
  }

  // 2. Endpoints with queued packets inject; drop drained queues.
  for (std::size_t i = 0; i < active_eps_.size();) {
    const std::uint32_t e = active_eps_[i];
    endpoints_[e].inject(now);
    if (ep_channels_[e].injection.in_flight() > 0) {
      arm(active_chans_, chan_active_, e);
    }
    if (endpoints_[e].queue_length() == 0) {
      ep_active_[e] = 0;
      active_eps_[i] = active_eps_.back();
      active_eps_.pop_back();
    } else {
      ++i;
    }
  }

  // 3. Routers with buffered flits advance; arm whatever they pushed into,
  // drop the ones that drained. A link goes on the wheel only on its
  // empty->busy edge: one step pushes at most one entry into a link (one
  // grant per output port feeds its flit side, and the credit side is fed
  // by the router at the other end), so a link holding exactly one entry
  // after the step was empty before it. A busy link keeps its slot — the
  // new entry arrives after its front.
  router_steps_ += active_routers_.size();
  if (active_routers_.size() > active_router_hwm_) {
    active_router_hwm_ = active_routers_.size();
  }
  for (std::size_t i = 0; i < active_routers_.size();) {
    const std::uint32_t r = active_routers_[i];
    routers_[r].step(now);
    // Arm exactly what this step pushed: each grant pushed a flit out of
    // its output port and returned a credit through its input port; the
    // target tables map those ports straight to worklist entries. Channels
    // still carrying older traffic are already armed — a channel only
    // leaves its worklist when fully drained.
    for (const Router::Grant& g : routers_[r].grants()) {
      for (const std::uint32_t t : {out_flit_target_[r][g.out_port],
                                    in_credit_target_[r][g.in_port]}) {
        if ((t & kChanBit) != 0) {
          arm(active_chans_, chan_active_, t & ~kChanBit);
        } else if (const RouterLink& link = links_[t];
                   link.flits.in_flight() + link.credits.in_flight() == 1) {
          slot_link(t);
        }
      }
    }
    if (routers_[r].buffered_flit_count() == 0) {
      router_active_[r] = 0;
      active_routers_[i] = active_routers_.back();
      active_routers_.pop_back();
    } else {
      ++i;
    }
  }
}

bool Network::quiescent() const {
  if (cfg_.skip_idle) {
    // The worklists are exact between steps: empty lists == nothing
    // buffered, queued or in flight anywhere.
    return wheel_links_ == 0 && active_chans_.empty() &&
           active_routers_.empty() && active_eps_.empty();
  }
  for (const auto& r : routers_) {
    if (r.buffered_flit_count() != 0) return false;
  }
  for (const auto& link : links_) {
    if (link.flits.in_flight() != 0 || link.credits.in_flight() != 0) {
      return false;
    }
  }
  for (const auto& chans : ep_channels_) {
    if (chans.injection.in_flight() != 0 ||
        chans.inj_credits.in_flight() != 0 ||
        chans.ejection.in_flight() != 0) {
      return false;
    }
  }
  for (const auto& ep : endpoints_) {
    if (ep.queue_length() != 0) return false;
  }
  return true;
}

// HM_HOT: arena lease rewind — runs once per probe between
// simulations; reuses wired storage, never reallocates.
void Network::reset() {
  if (fault_dirty_) {
    // Fault transitions detach channel pointers and install degraded
    // routing views; a reset network must match a fresh build bit for bit,
    // so re-run the construction wiring before the state rewind.
    for (auto& link : links_) {
      routers_[link.from].wire_output(link.out_port_at_from, &link.flits,
                                      cfg_.link_latency);
      routers_[link.to].wire_credit_return(link.in_port_at_to, &link.credits,
                                           cfg_.link_latency);
    }
    const std::size_t eps =
        static_cast<std::size_t>(cfg_.endpoints_per_chiplet);
    for (std::size_t e = 0; e < endpoints_.size(); ++e) {
      const std::size_t router = e / eps;
      const std::size_t port = routers_[router].network_ports() + e % eps;
      routers_[router].wire_credit_return(port, &ep_channels_[e].inj_credits,
                                          cfg_.injection_link_latency);
      routers_[router].wire_output(port, &ep_channels_[e].ejection,
                                   cfg_.ejection_link_latency);
    }
    for (auto& r : routers_) r.set_degraded(nullptr, nullptr, nullptr);
    router_online_.clear();
    flits_dropped_ = 0;
    fault_dirty_ = false;
  }
  for (auto& link : links_) {
    link.flits.clear();
    link.credits.clear();
  }
  for (auto& chans : ep_channels_) {
    chans.injection.clear();
    chans.inj_credits.clear();
    chans.ejection.clear();
  }
  for (auto& r : routers_) r.reset();
  for (auto& ep : endpoints_) ep.reset();
  packets_.clear();
  clear_wheel();
  active_chans_.clear();
  active_routers_.clear();
  active_eps_.clear();
  std::fill(chan_active_.begin(), chan_active_.end(), 0);
  std::fill(router_active_.begin(), router_active_.end(), 0);
  std::fill(ep_active_.begin(), ep_active_.end(), 0);
  tagged_delivered_ = 0;
  active_router_hwm_ = 0;
  router_steps_ = 0;
  cycles_stepped_ = 0;
}

Network::FaultOutcome Network::fault_transition(
    const std::vector<std::pair<graph::NodeId, graph::NodeId>>& kill_links,
    const std::vector<std::pair<graph::NodeId, graph::NodeId>>& repair_links,
    const std::vector<char>& router_online) {
  assert(router_online.size() == routers_.size());
  fault_dirty_ = true;
  const std::size_t n = routers_.size();
  const std::size_t eps = static_cast<std::size_t>(cfg_.endpoints_per_chiplet);
  if (router_online_.empty()) router_online_.assign(n, 1);
  const std::vector<char> was_online = router_online_;
  FaultOutcome out;

  auto find_directed = [&](graph::NodeId from,
                           graph::NodeId to) -> RouterLink& {
    for (auto& link : links_) {
      if (link.from == from && link.to == to) return link;
    }
    throw std::logic_error("Network::fault_transition: unknown link");
  };

  // 1. Kill both port sides of every killed link, harvesting the packet
  // ids of flits caught on the wire (the wormhole is severed: the whole
  // packet is poisoned network-wide). In-flight credits die with the port
  // (its counters are sealed to zero anyway).
  std::vector<std::vector<char>> dead_port(n);
  auto mark_dead = [&](graph::NodeId r, std::size_t port) {
    if (dead_port[r].empty()) dead_port[r].assign(routers_[r].total_ports(), 0);
    dead_port[r][port] = 1;
  };
  auto is_dead_port = [&](graph::NodeId r, std::size_t port) {
    return !dead_port[r].empty() && dead_port[r][port] != 0;
  };
  std::vector<std::uint32_t> poison_list;
  for (const auto& [a, b] : kill_links) {
    RouterLink& ab = find_directed(a, b);
    RouterLink& ba = find_directed(b, a);
    routers_[a].fault_kill_port(ab.out_port_at_from);
    routers_[b].fault_kill_port(ba.out_port_at_from);
    mark_dead(a, ab.out_port_at_from);
    mark_dead(b, ba.out_port_at_from);
    const auto harvest = [&](const Flit& f) {
      poison_list.push_back(f.packet_id);
    };
    ab.flits.for_each(harvest);
    ba.flits.for_each(harvest);
    ab.credits.clear();
    ba.credits.clear();
  }

  // 2. Routers going offline poison everything they hold, everything on
  // their endpoint channels, and every packet their endpoints are mid-way
  // through serializing (the source dies: the tail would never follow).
  for (graph::NodeId r = 0; r < n; ++r) {
    if (was_online[r] == 0 || router_online[r] != 0) continue;
    routers_[r].fault_collect_all(&poison_list);
    for (std::size_t local = 0; local < eps; ++local) {
      const std::size_t e = r * eps + local;
      const auto harvest = [&](const Flit& f) {
        poison_list.push_back(f.packet_id);
      };
      ep_channels_[e].injection.for_each(harvest);
      ep_channels_[e].ejection.for_each(harvest);
      const std::int64_t mid = endpoints_[e].mid_serialization_packet();
      if (mid >= 0) poison_list.push_back(static_cast<std::uint32_t>(mid));
    }
  }

  // 3. Committed wormholes pointed at a freshly dead port: their bodies
  // are severed too (zero-progress allocations re-route instead).
  for (graph::NodeId r = 0; r < n; ++r) {
    if (router_online[r] != 0 && !dead_port[r].empty()) {
      routers_[r].fault_collect_committed(
          [&](std::size_t p) { return dead_port[r][p] != 0; }, &poison_list);
    }
  }

  // 4. Poison predicate: harvested ids plus anything destined to an
  // offline router (its sink can never eject it).
  std::sort(poison_list.begin(), poison_list.end());
  poison_list.erase(std::unique(poison_list.begin(), poison_list.end()),
                    poison_list.end());
  auto poisoned = [&](std::uint32_t pid) {
    if (std::binary_search(poison_list.begin(), poison_list.end(), pid)) {
      return true;
    }
    const std::size_t dst = packets_[pid].dst_endpoint / eps;
    return router_online[dst] == 0;
  };
  std::vector<std::uint32_t> lost;  // packets losing >= 1 flit (dedup below)

  // 5. Excise poisoned flits from the link channels, refunding the
  // upstream output-VC credit unless that port died with the flit.
  for (auto& link : links_) {
    out.flits_dropped += link.flits.remove_if([&](const Flit& f) {
      if (!poisoned(f.packet_id)) return false;
      lost.push_back(f.packet_id);
      if (router_online[link.from] != 0 &&
          !is_dead_port(link.from, link.out_port_at_from)) {
        routers_[link.from].fault_refund_credit(link.out_port_at_from, f.vc);
      }
      return true;
    });
  }

  // 6. Endpoint channels: poisoned injections refund the source endpoint's
  // credits, poisoned ejections just vanish (ejection credits are
  // effectively infinite). Dead endpoints also lose in-flight credit
  // returns — their flow state is rebuilt from scratch below.
  for (std::size_t e = 0; e < endpoints_.size(); ++e) {
    const std::size_t r = e / eps;
    EndpointChannels& chans = ep_channels_[e];
    const bool ep_online = router_online[r] != 0;
    out.flits_dropped += chans.injection.remove_if([&](const Flit& f) {
      if (!poisoned(f.packet_id)) return false;
      lost.push_back(f.packet_id);
      if (ep_online) endpoints_[e].fault_refund_credit(f.vc);
      return true;
    });
    out.flits_dropped += chans.ejection.remove_if([&](const Flit& f) {
      if (!poisoned(f.packet_id)) return false;
      lost.push_back(f.packet_id);
      return true;
    });
    if (!ep_online) chans.inj_credits.clear();
  }

  // 7. Excise router-buffered state; refunds go to the physical upstream
  // hop of the input port each removed flit sat behind.
  for (graph::NodeId r = 0; r < n; ++r) {
    if (was_online[r] == 0 && router_online[r] == 0) continue;  // drained
    const bool online_r = router_online[r] != 0;
    const auto dead_out = [&](std::size_t p) {
      return !online_r || is_dead_port(r, p);
    };
    const auto refund = [&](std::size_t in_port, int vc) {
      const std::uint32_t t = in_credit_target_[r][in_port];
      if ((t & kChanBit) != 0) {
        const std::size_t e = t & ~kChanBit;
        if (router_online[e / eps] != 0) {
          endpoints_[e].fault_refund_credit(vc);
        }
        return;
      }
      const RouterLink& up = links_[t];
      if (router_online[up.from] != 0 &&
          !is_dead_port(up.from, up.out_port_at_from)) {
        routers_[up.from].fault_refund_credit(up.out_port_at_from, vc);
      }
    };
    const Router::FaultExcision ex = routers_[r].fault_excise(
        [&](std::uint32_t pid) {
          if (!poisoned(pid)) return false;
          lost.push_back(pid);
          return true;
        },
        dead_out, refund);
    out.flits_dropped += ex.flits_removed;
    out.packets_rerouted += ex.packets_rerouted;
  }

  // 8. Endpoints: abort poisoned mid-serializations, flush queued packets
  // that lost their destination, and power endpoint state up/down with
  // their router.
  for (std::size_t e = 0; e < endpoints_.size(); ++e) {
    const std::size_t r = e / eps;
    Endpoint& ep = endpoints_[e];
    if (router_online[r] != 0) {
      if (was_online[r] == 0) {  // router repaired: endpoint revives
        ep.fault_set_alive(true);
        ep.fault_reset_flow_state();
        continue;
      }
      const std::int64_t mid = ep.mid_serialization_packet();
      if (mid >= 0 && poisoned(static_cast<std::uint32_t>(mid))) {
        lost.push_back(static_cast<std::uint32_t>(mid));
        ep.fault_abort_active();
      }
      out.packets_flushed += ep.fault_flush_queue([&](const Packet& p) {
        return router_online[p.dst_endpoint / eps] == 0;
      });
    } else if (was_online[r] != 0) {  // router died: endpoint goes dark
      const std::int64_t mid = ep.mid_serialization_packet();
      if (mid >= 0) {
        lost.push_back(static_cast<std::uint32_t>(mid));
        ep.fault_abort_active();
      }
      out.packets_flushed += ep.fault_flush_queue(
          [](const Packet&) { return true; });
      ep.fault_set_alive(false);
      ep.fault_reset_flow_state();
    }
  }

  // 9. Repairs: the channels drained at kill time; rewire both sides.
  for (const auto& [a, b] : repair_links) {
    RouterLink& ab = find_directed(a, b);
    RouterLink& ba = find_directed(b, a);
    assert(ab.flits.in_flight() == 0 && ba.flits.in_flight() == 0);
    routers_[a].fault_restore_port(ab.out_port_at_from, &ab.flits,
                                   cfg_.link_latency, &ba.credits,
                                   cfg_.link_latency);
    routers_[b].fault_restore_port(ba.out_port_at_from, &ba.flits,
                                   cfg_.link_latency, &ab.credits,
                                   cfg_.link_latency);
  }

  router_online_ = router_online;
  flits_dropped_ += out.flits_dropped;
  std::sort(lost.begin(), lost.end());
  out.packets_lost = static_cast<std::uint64_t>(
      std::unique(lost.begin(), lost.end()) - lost.begin());

  // 10. The worklists may now both overstate (drained components) and
  // understate (revoked heads whose router drained its channels) the
  // active set; re-derive them exactly, in ascending index order.
  if (cfg_.skip_idle) rebuild_worklists();
  return out;
}

void Network::set_degraded_routing(const DegradedRouting* dr) {
  fault_dirty_ = true;
  for (std::size_t r = 0; r < routers_.size(); ++r) {
    if (dr == nullptr || dr->live_id[r] == DegradedRouting::kDead) {
      routers_[r].set_degraded(nullptr, nullptr, nullptr);
    } else {
      routers_[r].set_degraded(&dr->topo->tables(), dr->live_id.data(),
                               dr->port_map[r].data());
    }
  }
}

void Network::rebuild_worklists() {
  clear_wheel();
  active_chans_.clear();
  active_routers_.clear();
  active_eps_.clear();
  std::fill(chan_active_.begin(), chan_active_.end(), 0);
  std::fill(router_active_.begin(), router_active_.end(), 0);
  std::fill(ep_active_.begin(), ep_active_.end(), 0);
  // Survivors keep their arrival times, so each re-slots at its (possibly
  // later, after excision) front arrival.
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (links_[i].flits.in_flight() != 0 ||
        links_[i].credits.in_flight() != 0) {
      slot_link(static_cast<std::uint32_t>(i));
    }
  }
  for (std::size_t e = 0; e < ep_channels_.size(); ++e) {
    if (ep_channels_[e].injection.in_flight() != 0 ||
        ep_channels_[e].inj_credits.in_flight() != 0 ||
        ep_channels_[e].ejection.in_flight() != 0) {
      arm(active_chans_, chan_active_, e);
    }
  }
  for (std::size_t r = 0; r < routers_.size(); ++r) {
    if (routers_[r].buffered_flit_count() > 0) {
      arm(active_routers_, router_active_, r);
    }
  }
  for (std::size_t e = 0; e < endpoints_.size(); ++e) {
    if (endpoints_[e].queue_length() > 0) arm(active_eps_, ep_active_, e);
  }
}

std::size_t Network::flits_in_network() const {
  std::size_t total = 0;
  for (const auto& r : routers_) total += r.buffered_flits();
  for (const auto& link : links_) total += link.flits.in_flight();
  for (const auto& chans : ep_channels_) {
    total += chans.injection.in_flight() + chans.ejection.in_flight();
  }
  return total;
}

std::uint64_t Network::total_flits_injected() const {
  std::uint64_t total = 0;
  for (const auto& ep : endpoints_) total += ep.flits_injected();
  return total;
}

std::uint64_t Network::total_flits_ejected() const {
  std::uint64_t total = 0;
  for (const auto& ep : endpoints_) total += ep.sink().flits_ejected;
  return total;
}

Network::HotStats Network::hot_stats() const {
  HotStats out;
  for (const auto& r : routers_) {
    const Router::HotStats& s = r.hot_stats();
    out.routers.flits_routed += s.flits_routed;
    out.routers.va_stall_cycles += s.va_stall_cycles;
    out.routers.sa_conflict_stalls += s.sa_conflict_stalls;
    out.routers.sa_credit_stalls += s.sa_credit_stalls;
    out.routers.heads_revoked += s.heads_revoked;
    if (s.ring_hwm > out.routers.ring_hwm) out.routers.ring_hwm = s.ring_hwm;
  }
  for (const auto& ep : endpoints_) {
    if (ep.queue_hwm() > out.source_queue_hwm) {
      out.source_queue_hwm = ep.queue_hwm();
    }
  }
  out.active_router_hwm = active_router_hwm_;
  out.router_steps = router_steps_;
  out.cycles_stepped = cycles_stepped_;
  return out;
}

bool Network::invariants_ok(std::string* why) const {
  for (const auto& r : routers_) {
    if (!r.invariants_ok(why)) return false;
  }
  if (total_flits_injected() !=
      total_flits_ejected() + flits_in_network() + flits_dropped_) {
    if (why != nullptr) *why = "flit conservation violated";
    return false;
  }
  if (cfg_.skip_idle) {
    // Worklist exactness between steps: a component holds work iff its
    // membership flag is set. Catches both a dropped arming (work that
    // would never be stepped again) and direct endpoint().try_enqueue()
    // misuse that bypasses offer_packet.
    auto fail = [&](const char* msg) {
      if (why != nullptr) *why = msg;
      return false;
    };
    for (std::size_t r = 0; r < routers_.size(); ++r) {
      if ((routers_[r].buffered_flit_count() > 0) !=
          (router_active_[r] != 0)) {
        return fail("active-set router flag out of sync");
      }
    }
    // Link wheel exactness: a link is in flight iff it is on the wheel,
    // exactly once, in the slot of its front arrival.
    std::vector<char> on_wheel(links_.size(), 0);
    std::size_t slotted = 0;
    for (std::size_t s = 0; s < wheel_head_.size(); ++s) {
      for (std::uint32_t li = wheel_head_[s]; li != kNoLink;
           li = wheel_next_[li]) {
        if (li >= links_.size() || on_wheel[li] != 0) {
          return fail("link wheel list corrupt");
        }
        on_wheel[li] = 1;
        ++slotted;
        const RouterLink& link = links_[li];
        if (link.flits.in_flight() == 0 && link.credits.in_flight() == 0) {
          return fail("drained link left on the wheel");
        }
        if ((static_cast<std::size_t>(link_front(link)) & wheel_mask_) != s) {
          return fail("link not on the wheel slot of its front arrival");
        }
      }
    }
    if (slotted != wheel_links_) return fail("link wheel count out of sync");
    for (std::size_t i = 0; i < links_.size(); ++i) {
      const bool busy = links_[i].flits.in_flight() != 0 ||
                        links_[i].credits.in_flight() != 0;
      if (busy && on_wheel[i] == 0) {
        return fail("in-flight link missing from the wheel");
      }
    }
    for (std::size_t e = 0; e < ep_channels_.size(); ++e) {
      const bool busy = ep_channels_[e].injection.in_flight() != 0 ||
                        ep_channels_[e].inj_credits.in_flight() != 0 ||
                        ep_channels_[e].ejection.in_flight() != 0;
      if (busy != (chan_active_[e] != 0)) {
        return fail("active-set channel flag out of sync");
      }
    }
    for (std::size_t e = 0; e < endpoints_.size(); ++e) {
      if ((endpoints_[e].queue_length() > 0) != (ep_active_[e] != 0)) {
        return fail("active-set endpoint flag out of sync");
      }
    }
  }
  return true;
}

}  // namespace hm::noc
