// Mutation operators over chiplet arrangements (the move set of the
// arrangement-search engine in search/tempering.hpp).
//
// A search state is an ordinary core::Arrangement: lattice coordinates per
// chiplet plus an adjacency graph. The paper's factories emit the *full*
// induced adjacency (every boundary-sharing pair is linked); mutations
// explore the wider space of (site occupancy, link subset) states:
//
//   * kRelocate — move one chiplet to a free lattice site on the occupied
//     frontier; its links are re-derived as the full induced adjacency at
//     the new site (links elsewhere, including earlier toggles, persist).
//   * kSwap    — exchange the lattice sites of two chiplets (a vertex
//     relabeling of the graph; physically meaningful under non-uniform
//     traffic, where endpoint ids are tied to chiplet ids).
//   * kAddEdge / kRemoveEdge — toggle one D2D link. An edge is *legal* only
//     between chiplets whose sites share a boundary under the family's
//     lattice rule (grid: 4-neighborhood; brickwall/honeycomb: 2 same-row +
//     4 parity-offset row neighbours; HexaMesh: the 6 axial directions).
//
// Every candidate is legal by construction: coordinates stay unique, every
// edge connects boundary-sharing sites, and the graph stays connected
// (required by the routing layer); proposals that would violate any of
// these return nullopt and the caller redraws. Each mutation also reports
// the noc::GraphEdit taking the old graph to the new one, which is what
// lets the search engine rebuild routing tables incrementally
// (TopologyContext::rebuild_from) instead of from scratch.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/arrangement.hpp"
#include "noc/rng.hpp"
#include "noc/routing.hpp"

namespace hm::search {

enum class MutationKind {
  kRelocate,
  kSwap,
  kAddEdge,
  kRemoveEdge,
  kNone,  ///< trace marker for a step where no legal proposal was found
};

/// Short names, e.g. "relocate", "add_edge".
[[nodiscard]] std::string to_string(MutationKind k);

/// The lattice neighbour sites of `c` under `type`'s adjacency rule
/// (candidates; occupied or not). Honeycomb shares the brickwall lattice.
[[nodiscard]] std::vector<core::LatticeCoord> lattice_neighbors(
    core::ArrangementType type, core::LatticeCoord c);

/// True iff sites `a` and `b` share a boundary under `type`'s rule — the
/// legality condition for a D2D link between their occupants.
[[nodiscard]] bool sites_adjacent(core::ArrangementType type,
                                  core::LatticeCoord a, core::LatticeCoord b);

/// A proposed successor state: the mutated arrangement plus the graph edit
/// taking the current graph to the candidate's (empty for pure relabelings
/// only when the relabeling is the identity, which proposals never emit).
struct Candidate {
  core::Arrangement arrangement;
  MutationKind kind = MutationKind::kNone;
  noc::GraphEdit edit;
};

/// Structural legality of an arrangement as a search state: unique
/// coordinates, every edge between boundary-sharing sites, connected graph,
/// graph vertex count == chiplet count. The factories' outputs and every
/// Candidate satisfy this; exposed for tests and for validating custom
/// start states.
[[nodiscard]] bool is_legal_arrangement(const core::Arrangement& arr);

/// Proposes one mutation of the given kind. Returns nullopt when the drawn
/// move is illegal (e.g. the drawn edge is a bridge) or the kind has no
/// legal move at all (e.g. kAddEdge on a fully linked arrangement); the
/// caller redraws, so RNG consumption stays deterministic either way.
[[nodiscard]] std::optional<Candidate> propose_mutation(
    const core::Arrangement& cur, MutationKind kind, noc::Rng& rng);

/// Proposes a mutation of a uniformly drawn kind (relocate / swap /
/// add_edge / remove_edge).
[[nodiscard]] std::optional<Candidate> propose_mutation(
    const core::Arrangement& cur, noc::Rng& rng);

}  // namespace hm::search
