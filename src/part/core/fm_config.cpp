#include "src/part/core/fm_config.h"

#include <sstream>

namespace vlsipart {

const char* name_of(TieBreak v) {
  switch (v) {
    case TieBreak::kAway:
      return "Away";
    case TieBreak::kPart0:
      return "Part0";
    case TieBreak::kToward:
      return "Toward";
  }
  return "?";
}

const char* name_of(ZeroGainUpdate v) {
  switch (v) {
    case ZeroGainUpdate::kAll:
      return "AllDgain";
    case ZeroGainUpdate::kNonzero:
      return "Nonzero";
  }
  return "?";
}

const char* name_of(InsertOrder v) {
  switch (v) {
    case InsertOrder::kLifo:
      return "LIFO";
    case InsertOrder::kFifo:
      return "FIFO";
    case InsertOrder::kRandom:
      return "Random";
  }
  return "?";
}

const char* name_of(BestChoice v) {
  switch (v) {
    case BestChoice::kFirst:
      return "First";
    case BestChoice::kLast:
      return "Last";
    case BestChoice::kBalance:
      return "Balance";
  }
  return "?";
}

const char* name_of(IllegalHeadPolicy v) {
  switch (v) {
    case IllegalHeadPolicy::kSkipBucket:
      return "SkipBucket";
    case IllegalHeadPolicy::kSkipSide:
      return "SkipSide";
  }
  return "?";
}

const char* name_of(InitialScheme v) {
  switch (v) {
    case InitialScheme::kRandom:
      return "Random";
    case InitialScheme::kBfs:
      return "BFS";
    case InitialScheme::kMixed:
      return "Mixed";
  }
  return "?";
}

std::string FmConfig::to_string() const {
  std::ostringstream out;
  out << (clip ? "CLIP" : "FM") << "(" << name_of(tie_break) << ","
      << name_of(zero_gain_update) << "," << name_of(insert_order) << ","
      << name_of(best_choice) << "," << name_of(illegal_head)
      << (exclude_oversized ? ",noOversized" : "")
      << (look_beyond_first ? ",lookBeyond" : "");
  if (initial_scheme != InitialScheme::kRandom) {
    out << ",init=" << name_of(initial_scheme);
  }
  if (lookahead_depth > 1) out << ",LA" << lookahead_depth;
  if (refine_threads > 1) out << ",par" << refine_threads;
  if (audit.enabled()) out << ",audit=" << audit.to_string();
  out << ")";
  return out.str();
}

}  // namespace vlsipart
