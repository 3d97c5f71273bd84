// Query decomposition and vertex ordering (Sections 3 and 5.3).
//
// The query vertices U are split into core vertices Uc (degree > 1 among
// variables) and satellite vertices Us (degree 1); for a component whose
// maximum degree is <= 1, one vertex is promoted to core. The recursion
// runs over Uc only; satellites are resolved set-at-a-time from their core
// vertex (Algorithm 2).
//
// Core ordering uses two ranking functions:
//   r1(u) = number of satellites attached to u        (primary when the
//           component has satellites),
//   r2(u) = total edge-type count over u's signature  (primary otherwise,
//           tie-break when r1 applies),
// with the connectivity constraint that each subsequent core vertex must be
// adjacent to an already ordered one. When a ValueIndex is supplied,
// vertices whose FILTER constraints pass the RangeScanWorthPushing cutover
// are ranked first by their estimated range width (narrower range = more
// selective seed = earlier), ahead of r1/r2; wide residual-evaluated
// constraints and filter-free queries are ordered exactly as before.
//
// Disconnected queries (legal SPARQL, a cross product) are planned per
// connected component; the matcher chains components and combines their
// solutions.

#ifndef AMBER_CORE_QUERY_PLAN_H_
#define AMBER_CORE_QUERY_PLAN_H_

#include <cstdint>
#include <vector>

#include "sparql/query_graph.h"
#include "util/status.h"

namespace amber {

class ValueIndex;

/// Plan for one connected component of the query multigraph.
struct ComponentPlan {
  /// Core vertices in matching order (Uord_c). Never empty.
  std::vector<uint32_t> core_order;
  /// satellites[i] = satellite vertices attached to core_order[i].
  std::vector<std::vector<uint32_t>> satellites;
};

/// Plan for the whole query.
struct QueryPlan {
  std::vector<ComponentPlan> components;
  /// Per query vertex: true if core.
  std::vector<bool> is_core;

  size_t NumCoreVertices() const {
    size_t n = 0;
    for (const ComponentPlan& c : components) n += c.core_order.size();
    return n;
  }
  size_t NumSatelliteVertices() const {
    size_t n = 0;
    for (const ComponentPlan& c : components) {
      for (const auto& s : c.satellites) n += s.size();
    }
    return n;
  }
};

/// Options steering plan construction (ablation hooks).
struct PlanOptions {
  /// When false, core vertices are ordered by index (still connectivity-
  /// constrained) instead of by the r1/r2 heuristics — Ablation A.
  bool use_ordering_heuristics = true;
};

/// Decomposes and orders the query (QueryDecompose + VertexOrdering).
/// `values` (optional) supplies range-width selectivity estimates for
/// FILTER predicate constraints; without it the ordering is the paper's
/// r1/r2 heuristic alone. `num_vertices` (the data graph's vertex count)
/// feeds the RangeScanWorthPushing cutover so only ranges the matcher will
/// actually push influence the ordering.
QueryPlan PlanQuery(const QueryGraph& q, const PlanOptions& options = {},
                    const ValueIndex* values = nullptr,
                    uint64_t num_vertices = 0);

}  // namespace amber

#endif  // AMBER_CORE_QUERY_PLAN_H_
