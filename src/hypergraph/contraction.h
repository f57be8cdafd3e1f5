// Hypergraph contraction: collapse vertex clusters into coarse vertices.
//
// This is the workhorse of multilevel coarsening (Sec. 2.2's "ML" engines
// and the hMetis-like partitioner of Tables 4-5).  Given a cluster map
// (vertex -> cluster id), contraction:
//   * sums vertex weights per cluster,
//   * rewrites each net onto cluster ids, dropping nets that collapse to a
//     single cluster,
//   * merges parallel nets (identical pin sets) by summing their weights.
//
// The implementation is allocation-free when the caller threads a
// ContractionMemory through repeated calls (V-cycles, multistart ML):
// cluster renumbering uses a dense array (cluster ids are vertex ids, so
// they are bounded by num_vertices), pending-net pins live in one flat
// pool, and parallel-net detection uses a flat open-addressing table —
// no per-call unordered_map or per-net vector churn.
#pragma once

#include <cstdint>
#include <vector>

#include "src/hypergraph/hypergraph.h"

namespace vlsipart {

/// Reusable scratch buffers for contract().  All buffers grow to the
/// high-water mark of the instances seen and are reused across calls.
/// Not thread-safe: use one per thread (parallel ML multistart gives each
/// worker its own engine clone, hence its own memory).
struct ContractionMemory {
  /// cluster id -> dense coarse id (kInvalidVertex = unseen).
  std::vector<VertexId> renumber;
  std::vector<Weight> cluster_weight;
  /// Dedup'd coarse pins of the net currently being rewritten.
  std::vector<VertexId> coarse_pins;
  /// Flat pin storage of all surviving (pending) nets.
  std::vector<VertexId> pin_pool;
  struct PendingNet {
    std::size_t pins_begin = 0;
    std::uint32_t pins_size = 0;
    Weight weight = 0;
  };
  std::vector<PendingNet> pending;
  /// Open-addressing (linear probing) table over `pending` indices used
  /// to find an identical surviving net; sized to a power of two with
  /// load factor <= 0.5.
  std::vector<std::uint32_t> slots;
};

struct ContractionResult {
  Hypergraph coarse;
  /// fine vertex -> coarse vertex (the normalized cluster map).
  std::vector<VertexId> fine_to_coarse;
  std::size_t num_coarse_vertices = 0;
  /// Nets dropped because all pins landed in one cluster.
  std::size_t nets_collapsed = 0;
  /// Nets merged into an identical surviving net.
  std::size_t nets_merged = 0;
};

/// Contract `h` according to `cluster_of` (size num_vertices; cluster ids
/// need not be dense — they are renumbered in first-appearance order, but
/// must be < num_vertices).  Edge weights of merged parallel nets are
/// summed so that coarse cut equals fine cut for any partition that
/// respects the clusters.  `memory` (optional) supplies reusable scratch;
/// passing nullptr uses call-local buffers.
ContractionResult contract(const Hypergraph& h,
                           const std::vector<VertexId>& cluster_of,
                           ContractionMemory* memory = nullptr);

/// Weight cap of a coarse cluster: `max_cluster_weight` when positive,
/// else total weight / max(coarsen_to, 32).  Clusters then stay small
/// enough that the coarsest graph keeps movable mass for FM to
/// rebalance and coarse vertices stay well below a typical (2%) balance
/// window.  Never below the heaviest vertex: macros are indivisible.
/// The multilevel coarseners and n-level contraction all cap with it.
Weight cluster_weight_cap(const Hypergraph& h, std::size_t coarsen_to,
                          Weight max_cluster_weight);

/// Push fixed-vertex constraints one level down: a coarse vertex is fixed
/// to p iff it contains a fine vertex fixed to p.  The coarseners never
/// merge a fixed vertex, so a cluster mixing two parts is a bug (checked).
std::vector<PartId> project_fixed(const std::vector<PartId>& fine_fixed,
                                  const std::vector<VertexId>& fine_to_coarse,
                                  std::size_t num_coarse);

/// Project a coarse 2-way assignment back onto the fine hypergraph.
std::vector<PartId> project_partition(
    const std::vector<VertexId>& fine_to_coarse,
    const std::vector<PartId>& coarse_parts);

}  // namespace vlsipart
