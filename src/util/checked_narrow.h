// Checked integral narrowing for the compact-CSR id space.
//
// The hypergraph stores offsets as std::size_t while ids (VertexId,
// EdgeId) are 32-bit; every conversion from the 64-bit size domain into
// the id domain is a potential silent truncation once instances pass
// 2^32 pins.  vp::checked_narrow<T>(v) is the sanctioned spelling of
// that conversion: it asserts the value is representable in T and then
// casts.  In src/part and src/hypergraph an implicit narrowing
// assignment does not compile (-Werror=conversion), and vpart_lint's
// narrowing-cast rule flags a bare static_cast of a size-derived value
// while treating a checked_narrow-wrapped one as proven.
//
// The check is VP_CHECK (always on): it is one compare against a
// constant with a never-taken branch, which is noise next to the memory
// traffic of any loop that narrows a size — and a wrong id is exactly
// the silently-corrupt-structure failure the methodology paper warns
// about.
#pragma once

#include <type_traits>
#include <utility>

#include "src/util/logging.h"

namespace vlsipart {

/// Convert `value` to the narrower integral type To, failing fast when
/// the value is not representable (too large, or negative into an
/// unsigned To).
template <typename To, typename From>
constexpr To checked_narrow(From value) {
  static_assert(std::is_integral_v<To> && std::is_integral_v<From>,
                "checked_narrow converts between integral types");
  VP_CHECK(std::in_range<To>(value),
           "checked_narrow: value " << value << " not representable");
  return static_cast<To>(value);
}

}  // namespace vlsipart

/// Short alias used at call sites: vp::checked_narrow<VertexId>(n).
namespace vp = vlsipart;
