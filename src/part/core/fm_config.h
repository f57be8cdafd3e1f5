// FM engine configuration: every "implicit implementation decision" the
// paper identifies (Sec. 2.2) is an explicit, switchable policy here, so
// the testbed can reproduce the full cross-product the paper measures.
#pragma once

#include <cstdint>
#include <string>

#include "src/util/audit_config.h"

namespace vlsipart {

/// Tie-breaking among equal-key highest-gain buckets when moves are
/// segregated by source partition (paper, Sec. 2.2, first bullet).
enum class TieBreak : std::uint8_t {
  kAway = 0,   ///< move NOT from the partition of the last moved vertex
  kPart0 = 1,  ///< always prefer the move out of partition 0
  kToward = 2, ///< move FROM the partition of the last moved vertex
};

/// What to do when a neighbor's delta gain is zero during gain update
/// (paper, Sec. 2.2, second bullet).
enum class ZeroGainUpdate : std::uint8_t {
  kAll = 0,      ///< reinsert the vertex anyway ("All-dgain"); shifts its
                 ///< position within the same gain bucket
  kNonzero = 1,  ///< skip the update; position unchanged ("Nonzero")
};

/// Where a (re)inserted vertex lands within its gain bucket (paper,
/// Sec. 2.2, third bullet; studied by Hagen-Huang-Kahng [21]).
enum class InsertOrder : std::uint8_t {
  kLifo = 0,    ///< push at the head (the choice [21] found best)
  kFifo = 1,    ///< push at the tail
  kRandom = 2,  ///< random end (O(1) randomized position approximation)
};

/// Tie-breaking when selecting the best solution seen during a pass
/// (paper, Sec. 2.2, fourth bullet).
enum class BestChoice : std::uint8_t {
  kFirst = 0,    ///< earliest prefix achieving the best cut
  kLast = 1,     ///< latest prefix achieving the best cut
  kBalance = 2,  ///< among best-cut prefixes, the one with most slack to
                 ///< the balance bounds
};

/// What to skip when the head of the highest-gain bucket is illegal
/// (paper, Sec. 2.3: "the entire bucket (or perhaps even every bucket for
/// that partition) is skipped").
enum class IllegalHeadPolicy : std::uint8_t {
  kSkipBucket = 0,  ///< descend to the next lower bucket of that side
  kSkipSide = 1,    ///< abandon the whole side for this selection
};

/// Initial-solution generator (Hauck-Borriello [20] count it among the
/// hidden decisions, Sec. 2.2); see initial.h for the generators.
enum class InitialScheme : std::uint8_t {
  kRandom = 0,  ///< randomized LPT (random_initial)
  kBfs = 1,     ///< BFS region growing (bfs_initial)
  kMixed = 2,   ///< alternate random/BFS across tries
};

struct FmConfig {
  /// false = classic FM keyed by actual gain [17]; true = CLIP [15],
  /// keyed by cumulative delta gain since the start of the pass.
  bool clip = false;

  TieBreak tie_break = TieBreak::kAway;
  ZeroGainUpdate zero_gain_update = ZeroGainUpdate::kNonzero;
  InsertOrder insert_order = InsertOrder::kLifo;
  BestChoice best_choice = BestChoice::kFirst;
  IllegalHeadPolicy illegal_head = IllegalHeadPolicy::kSkipBucket;

  /// How a start's solution is generated before refinement: per start in
  /// the flat engine, per try at the coarsest level of ml (and so of evo
  /// and k > 2 bisections) and nlevel.  kMixed keys its alternation on
  /// that start or try index.
  InitialScheme initial_scheme = InitialScheme::kRandom;

  /// The corking fix of Sec. 2.3: do not insert cells whose area exceeds
  /// the balance window into the gain structure (they can never legally
  /// move between two feasible solutions).  "Essentially zero overhead."
  bool exclude_oversized = false;

  /// Look past an illegal first move within a bucket (the alternative
  /// fix Sec. 2.3 finds "too time-consuming" and harmful to quality).
  bool look_beyond_first = false;

  /// Krishnamurthy lookahead depth [30]: 1 = classic FM gains; r > 1
  /// breaks ties among equal-gain moves by comparing level-2..r lookahead
  /// gains (binding-number based) lexicographically.  Ignored in CLIP
  /// mode (cumulative-delta keys have no level structure).
  int lookahead_depth = 1;

  /// Stop after this many passes even if still improving; <= 0 means run
  /// until a pass yields no improvement.
  int max_passes = -1;

  /// Record the per-move cut trajectory of every pass into
  /// FmResult::pass_traces (diagnostic; costs one Weight per move).
  bool record_trace = false;

  /// Worker threads for refinement.  1 = the serial FM engine above
  /// (bit-identical to historical behavior); > 1 selects the
  /// synchronous-round parallel refiner (parallel_refine.h), whose
  /// results are identical for every thread count — the two engines are
  /// different heuristics, so 1 vs >1 legitimately differ.  No command
  /// line sets it and run_engine rejects any value other than 1: it
  /// stays only for e2ebench's round-engine probe and the parallel tests.
  // det-lint: allow(knob-completeness)
  std::size_t refine_threads = 1;

  /// Runtime invariant audits (off by default).  The engine resolves this
  /// against the VLSIPART_AUDIT environment variable at construction —
  /// the env var, when set, wins — so audits can be forced on for any
  /// binary without code changes.  See invariant_audit.h.
  AuditConfig audit;

  std::string to_string() const;
};

const char* name_of(TieBreak v);
const char* name_of(ZeroGainUpdate v);
const char* name_of(InsertOrder v);
const char* name_of(BestChoice v);
const char* name_of(IllegalHeadPolicy v);
const char* name_of(InitialScheme v);

}  // namespace vlsipart
