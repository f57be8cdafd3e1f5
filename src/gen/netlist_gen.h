// Synthetic ISPD98-like netlist generator.
//
// SUBSTITUTION (see DESIGN.md): the paper evaluates on the ISPD98 IBM
// benchmark suite [1][2], which is not redistributable here.  This module
// generates seeded synthetic instances that match the suite's *published
// statistical profile* — the attributes Sec. 2.1 of the paper identifies
// as the salient ones:
//   * |E| close to |V|; about 2.7-3.1 nets per cell and 2.7-2.8 pins
//     per net on the presets (the published suite runs 3 to 5; ROADMAP
//     item 7);
//   * a small number of extremely large nets (clock/reset class);
//   * wide variation in cell areas, including large macro cells whose
//     area exceeds a 2% balance tolerance window (this is what triggers
//     the CLIP "corking" effect of Sec. 2.3);
//   * hierarchical locality (netlists are clustered, not Erdos-Renyi),
//     which is what makes multilevel methods effective.
//
// Topology model: cells are laid out on a virtual line in bit-reversed
// hierarchical order; each net picks a center cell and draws its other
// pins from a two-scale neighborhood (mostly local, occasionally global).
// This yields a recursive cluster structure similar to a Rent-exponent
// layout hierarchy.
#pragma once

#include <string>
#include <vector>

#include "src/hypergraph/hypergraph.h"
#include "src/util/rng.h"

namespace vlsipart {

struct GenConfig {
  std::string name = "synthetic";
  std::size_t num_cells = 10000;
  std::size_t num_pads = 200;
  std::size_t num_nets = 11000;  // before pad nets and huge nets

  // Net-size distribution: size = 2 + TruncGeom(p), truncated at max.
  double net_size_geom_p = 0.55;    // gives mean size near 2.8
  std::size_t max_net_size = 18;

  // Locality: pin offsets from the net center follow a Pareto(1, alpha)
  // magnitude — a power-law "wirelength" distribution that creates
  // cluster structure at every scale (what multilevel methods exploit).
  // Smaller alpha = longer-range nets = higher unavoidable cut.
  double offset_alpha = 0.75;
  // A small fraction of pins is placed uniformly at random (cross-chip
  // control signals).
  double global_pin_fraction = 0.005;

  // Huge nets (clock/reset class).
  std::size_t num_huge_nets = 4;
  double huge_net_span_fraction = 0.02;  // pins = fraction of cells

  // Cell areas: standard cells draw from a small discrete range
  // [1, standard_area_max]; macros draw a Pareto tail.  Macros are
  // assigned to the highest-degree cells — matching the paper's
  // observation that "the cells with the highest gain will tend to be
  // the cells of highest degree, which are also the cells with greatest
  // area" (Sec. 2.3), the precondition for CLIP corking.  The largest
  // macro always gets macro_area_max_fraction, guaranteeing at least one
  // cell above a 2% balance window.
  Weight standard_area_max = 8;
  std::size_t num_macros = 10;
  // Macro areas as fractions of the standard-cell total area.
  double macro_area_min_fraction = 0.005;
  double macro_area_max_fraction = 0.04;

  std::uint64_t seed = 1;

  /// Scale cell/pad/net/macro counts by `factor` (>= 0, clamped to keep
  /// at least a handful of cells).  Used by benches to trade fidelity for
  /// runtime; --full reproduces the preset sizes.
  GenConfig scaled(double factor) const;
};

/// Generate an instance.  Deterministic for a fixed config (incl. seed).
Hypergraph generate_netlist(const GenConfig& config);

/// Named presets: "ibm01".."ibm18" sized after the published ISPD98
/// parameters, plus "tiny" / "small" / "medium" test instances.
/// Throws std::invalid_argument for unknown names.
GenConfig preset(const std::string& name);

/// All ibmXX preset names in suite order.
std::vector<std::string> ibm_preset_names();

}  // namespace vlsipart
