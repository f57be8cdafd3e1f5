#include "src/flows/topdown_place.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "src/part/engine.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace vlsipart {
namespace {

struct Region {
  double x0, y0, x1, y1;
  std::vector<VertexId> cells;
  std::uint64_t seed;
};

class TopdownPlacer {
 public:
  TopdownPlacer(const Hypergraph& h, const PlacerConfig& config)
      : h_(h), config_(config) {
    report_.placement.x.assign(h.num_vertices(), 0.0);
    report_.placement.y.assign(h.num_vertices(), 0.0);
  }

  PlacementReport run() {
    CpuTimer timer;
    double width = config_.core_width;
    double height = config_.core_height;
    if (width <= 0.0 || height <= 0.0) {
      const double side =
          std::sqrt(static_cast<double>(h_.total_vertex_weight()));
      width = height = std::max(1.0, side);
    }
    Region top{0.0, 0.0, width, height, {}, config_.seed};
    top.cells.reserve(h_.num_vertices());
    for (std::size_t v = 0; v < h_.num_vertices(); ++v) {
      top.cells.push_back(static_cast<VertexId>(v));
    }
    // Seed initial positions at the region center so terminal propagation
    // in early bisections sees sensible external locations.
    for (const VertexId v : top.cells) {
      report_.placement.x[v] = width / 2.0;
      report_.placement.y[v] = height / 2.0;
    }
    place_region(top);
    report_.hpwl = hpwl(h_, report_.placement);
    report_.cpu_seconds = timer.elapsed();
    return std::move(report_);
  }

 private:
  void place_region(const Region& region) {
    if (region.cells.size() <= config_.leaf_cells) {
      place_leaf(region);
      return;
    }
    const bool vertical = (region.x1 - region.x0) >= (region.y1 - region.y0);
    const double cut = vertical ? (region.x0 + region.x1) / 2.0
                                : (region.y0 + region.y1) / 2.0;

    // Build the sub-hypergraph: region cells first, then one fixed
    // terminal per crossing net.
    std::unordered_map<VertexId, VertexId> local_id;
    local_id.reserve(region.cells.size());
    for (std::size_t i = 0; i < region.cells.size(); ++i) {
      local_id.emplace(region.cells[i], static_cast<VertexId>(i));
    }

    struct SubNet {
      EdgeId edge = kInvalidEdge;
      std::vector<VertexId> internal;  // local ids
      bool has_external = false;
      double external_pos_sum = 0.0;
      std::size_t external_count = 0;
    };
    // Sub-nets are collected in deterministic first-encounter order (a
    // pure function of cell order and the CSR layout); iterating a hash
    // map here would order the sub-hypergraph's nets — and therefore the
    // FM result — by the standard library's bucket layout.
    std::vector<SubNet> subnets;
    std::unordered_map<EdgeId, std::size_t> subnet_index;  // lookup only
    for (const VertexId v : region.cells) {
      for (const EdgeId e : h_.incident_edges(v)) {
        auto [it, inserted] = subnet_index.try_emplace(e, subnets.size());
        if (inserted) {
          SubNet& net = subnets.emplace_back();
          net.edge = e;
          for (const VertexId u : h_.pins(e)) {
            const auto lit = local_id.find(u);
            if (lit != local_id.end()) {
              net.internal.push_back(lit->second);
            } else {
              net.has_external = true;
              net.external_pos_sum += vertical ? report_.placement.x[u]
                                               : report_.placement.y[u];
              ++net.external_count;
            }
          }
        }
      }
    }

    // Count terminals (one per crossing net) and build the builder.
    std::size_t num_terminals = 0;
    for (const SubNet& net : subnets) {
      if (net.has_external && !net.internal.empty()) ++num_terminals;
    }
    const std::size_t n_local = region.cells.size();
    HypergraphBuilder builder(n_local + num_terminals);
    for (std::size_t i = 0; i < n_local; ++i) {
      builder.set_vertex_weight(static_cast<VertexId>(i),
                                h_.vertex_weight(region.cells[i]));
    }
    std::vector<PartId> fixed(n_local + num_terminals, kNoPart);
    std::size_t next_terminal = n_local;
    std::vector<VertexId> pins;
    for (const SubNet& net : subnets) {
      if (net.internal.empty()) continue;
      pins = net.internal;
      if (net.has_external) {
        const auto t = static_cast<VertexId>(next_terminal++);
        builder.set_vertex_weight(t, 1);
        const double mean =
            net.external_pos_sum / static_cast<double>(net.external_count);
        fixed[t] = (mean < cut) ? 0 : 1;
        pins.push_back(t);
        ++report_.terminals_created;
      }
      builder.add_edge(pins, h_.edge_weight(net.edge));
    }
    Hypergraph sub = builder.finalize();

    EngineSpec spec;
    spec.engine = "flat";
    spec.tolerance = config_.tolerance;
    spec.starts = config_.starts_per_region;
    spec.seed = region.seed;
    spec.fm = config_.fm;
    EngineResult result = run_engine(spec, sub, fixed);
    ++report_.regions_partitioned;

    std::vector<PartId> parts = std::move(result.parts);
    if (parts.empty()) {
      // All starts infeasible (tiny skewed regions): fall back to LPT.
      PartitionProblem problem;
      problem.graph = &sub;
      problem.balance = BalanceConstraint::from_tolerance(
          sub.total_vertex_weight(), config_.tolerance);
      problem.fixed = std::move(fixed);
      parts = lpt_initial(problem);
    }

    Region low = region;
    Region high = region;
    if (vertical) {
      low.x1 = cut;
      high.x0 = cut;
    } else {
      low.y1 = cut;
      high.y0 = cut;
    }
    low.cells.clear();
    high.cells.clear();
    low.seed = region.seed * 2654435761u + 1;
    high.seed = region.seed * 2654435761u + 2;
    for (std::size_t i = 0; i < n_local; ++i) {
      (parts[i] == 0 ? low : high).cells.push_back(region.cells[i]);
    }
    // Update coarse positions so deeper terminal propagation sees the
    // new side assignment.
    for (const VertexId v : low.cells) {
      report_.placement.x[v] = (low.x0 + low.x1) / 2.0;
      report_.placement.y[v] = (low.y0 + low.y1) / 2.0;
    }
    for (const VertexId v : high.cells) {
      report_.placement.x[v] = (high.x0 + high.x1) / 2.0;
      report_.placement.y[v] = (high.y0 + high.y1) / 2.0;
    }
    place_region(low);
    place_region(high);
  }

  void place_leaf(const Region& region) {
    // Spread cells on a simple row grid inside the region, in id order.
    const std::size_t n = region.cells.size();
    if (n == 0) return;
    const auto cols = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(n))));
    const std::size_t rows = (n + cols - 1) / cols;
    const double dx = (region.x1 - region.x0) / static_cast<double>(cols);
    const double dy = (region.y1 - region.y0) / static_cast<double>(rows);
    std::vector<VertexId> ordered = region.cells;
    std::sort(ordered.begin(), ordered.end());
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t r = i / cols;
      const std::size_t c = i % cols;
      report_.placement.x[ordered[i]] =
          region.x0 + (static_cast<double>(c) + 0.5) * dx;
      report_.placement.y[ordered[i]] =
          region.y0 + (static_cast<double>(r) + 0.5) * dy;
    }
  }

  const Hypergraph& h_;
  PlacerConfig config_;
  PlacementReport report_;
};

}  // namespace

PlacementReport topdown_place(const Hypergraph& h,
                              const PlacerConfig& config) {
  TopdownPlacer placer(h, config);
  return placer.run();
}

double hpwl(const Hypergraph& h, const Placement& placement) {
  double total = 0.0;
  for (std::size_t e = 0; e < h.num_edges(); ++e) {
    double min_x = 0.0;
    double max_x = 0.0;
    double min_y = 0.0;
    double max_y = 0.0;
    bool first = true;
    for (const VertexId v : h.pins(static_cast<EdgeId>(e))) {
      const double x = placement.x[v];
      const double y = placement.y[v];
      if (first) {
        min_x = max_x = x;
        min_y = max_y = y;
        first = false;
      } else {
        min_x = std::min(min_x, x);
        max_x = std::max(max_x, x);
        min_y = std::min(min_y, y);
        max_y = std::max(max_y, y);
      }
    }
    total += static_cast<double>(h.edge_weight(static_cast<EdgeId>(e))) *
             ((max_x - min_x) + (max_y - min_y));
  }
  return total;
}

}  // namespace vlsipart
