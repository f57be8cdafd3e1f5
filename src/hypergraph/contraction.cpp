#include "src/hypergraph/contraction.h"

#include <algorithm>
#include <limits>
#include <span>

#include "src/util/checked_narrow.h"
#include "src/util/logging.h"

namespace vlsipart {
namespace {

constexpr std::uint32_t kEmptySlot = std::numeric_limits<std::uint32_t>::max();

// 64-bit FNV-1a over a pin sequence, used to bucket candidate parallel
// nets in the open-addressing table.
std::uint64_t hash_pins(std::span<const VertexId> pins) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const VertexId v : pins) {
    h ^= v;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

ContractionResult contract(const Hypergraph& h,
                           const std::vector<VertexId>& cluster_of,
                           ContractionMemory* memory) {
  VP_CHECK(cluster_of.size() == h.num_vertices(),
           "cluster map covers all vertices");

  ContractionMemory local;
  ContractionMemory& mem = memory != nullptr ? *memory : local;
  const std::size_t n = cluster_of.size();

  ContractionResult result;

  // Renumber cluster ids densely in order of first appearance so the
  // coarse vertex numbering is deterministic.  Cluster ids are vertex ids
  // (representatives), so a dense array replaces the historical hash map;
  // an out-of-range id is a hard error rather than a silently created
  // phantom coarse vertex.
  mem.renumber.assign(n, kInvalidVertex);
  result.fine_to_coarse.resize(n);
  VertexId next_coarse = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const VertexId c = cluster_of[v];
    VP_CHECK(c < n, "cluster id " << c << " of vertex " << v
                                  << " exceeds num_vertices " << n);
    if (mem.renumber[c] == kInvalidVertex) {
      mem.renumber[c] = next_coarse++;
    }
    result.fine_to_coarse[v] = mem.renumber[c];
  }
  const std::size_t nc = next_coarse;
  result.num_coarse_vertices = nc;

  HypergraphBuilder builder(nc);
  {
    mem.cluster_weight.assign(nc, 0);
    for (std::size_t v = 0; v < n; ++v) {
      mem.cluster_weight[result.fine_to_coarse[v]] +=
          h.vertex_weight(static_cast<VertexId>(v));
    }
    for (std::size_t c = 0; c < nc; ++c) {
      builder.set_vertex_weight(static_cast<VertexId>(c),
                                mem.cluster_weight[c]);
    }
  }

  // Rewrite each net onto coarse ids; dedup pins; merge parallel nets
  // (identical pin sets) via a flat linear-probing table over the
  // pending-net list.  At most one pending net exists per distinct pin
  // set at any time, so probing by exact pin comparison reproduces the
  // historical hash-map-of-lists merge exactly.
  VP_CHECK(h.num_edges() < kEmptySlot, "edge count fits table entries");
  std::size_t table_size = 16;
  while (table_size < 2 * h.num_edges()) table_size <<= 1;
  mem.slots.assign(table_size, kEmptySlot);
  const std::size_t mask = table_size - 1;
  mem.pending.clear();
  mem.pin_pool.clear();
  std::vector<VertexId>& coarse_pins = mem.coarse_pins;

  for (std::size_t e = 0; e < h.num_edges(); ++e) {
    coarse_pins.clear();
    for (const VertexId v : h.pins(static_cast<EdgeId>(e))) {
      coarse_pins.push_back(result.fine_to_coarse[v]);
    }
    std::sort(coarse_pins.begin(), coarse_pins.end());
    coarse_pins.erase(std::unique(coarse_pins.begin(), coarse_pins.end()),
                      coarse_pins.end());
    if (coarse_pins.size() < 2) {
      ++result.nets_collapsed;
      continue;
    }
    const Weight ew = h.edge_weight(static_cast<EdgeId>(e));
    std::size_t slot = static_cast<std::size_t>(hash_pins(coarse_pins)) & mask;
    while (true) {
      const std::uint32_t idx = mem.slots[slot];
      if (idx == kEmptySlot) {
        // Pending-net count and per-net pin count are bounded by the fine
        // edge/pin counts, which the id contract keeps below 2^32.
        mem.slots[slot] = vp::checked_narrow<std::uint32_t>(mem.pending.size());
        mem.pending.push_back(
            {mem.pin_pool.size(),
             vp::checked_narrow<std::uint32_t>(coarse_pins.size()), ew});
        mem.pin_pool.insert(mem.pin_pool.end(), coarse_pins.begin(),
                            coarse_pins.end());
        break;
      }
      ContractionMemory::PendingNet& net = mem.pending[idx];
      if (net.pins_size == coarse_pins.size() &&
          std::equal(coarse_pins.begin(), coarse_pins.end(),
                     mem.pin_pool.begin() +
                         static_cast<std::ptrdiff_t>(net.pins_begin))) {
        net.weight += ew;
        ++result.nets_merged;
        break;
      }
      slot = (slot + 1) & mask;
    }
  }

  for (const ContractionMemory::PendingNet& net : mem.pending) {
    builder.add_edge(
        std::span<const VertexId>(mem.pin_pool.data() + net.pins_begin,
                                  net.pins_size),
        net.weight);
  }
  result.coarse = builder.finalize(h.name() + ".coarse");
  return result;
}

std::vector<PartId> project_partition(
    const std::vector<VertexId>& fine_to_coarse,
    const std::vector<PartId>& coarse_parts) {
  std::vector<PartId> fine(fine_to_coarse.size(), kNoPart);
  for (std::size_t v = 0; v < fine_to_coarse.size(); ++v) {
    VP_CHECK(fine_to_coarse[v] < coarse_parts.size(),
             "coarse id in range during projection");
    fine[v] = coarse_parts[fine_to_coarse[v]];
  }
  return fine;
}

std::vector<PartId> project_fixed(const std::vector<PartId>& fine_fixed,
                                  const std::vector<VertexId>& fine_to_coarse,
                                  std::size_t num_coarse) {
  std::vector<PartId> coarse_fixed(num_coarse, kNoPart);
  for (std::size_t v = 0; v < fine_fixed.size(); ++v) {
    if (fine_fixed[v] == kNoPart) continue;
    PartId& slot = coarse_fixed[fine_to_coarse[v]];
    VP_CHECK(slot == kNoPart || slot == fine_fixed[v],
             "fixed vertices of different parts merged");
    slot = fine_fixed[v];
  }
  return coarse_fixed;
}

Weight cluster_weight_cap(const Hypergraph& h, std::size_t coarsen_to,
                          Weight max_cluster_weight) {
  if (max_cluster_weight > 0) return max_cluster_weight;
  const Weight cap = std::max<Weight>(
      1, h.total_vertex_weight() /
             static_cast<Weight>(std::max<std::size_t>(coarsen_to, 32)));
  return std::max(cap, h.max_vertex_weight());
}

}  // namespace vlsipart
