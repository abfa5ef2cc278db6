// The interned-DN identifier (DESIGN.md §16).
//
// A DnId names one canonicalized distinguished name inside a core::DnPool.
// It lives in its own dependency-free header so value types below core/ in
// the include order (x509::Certificate, zeek records) can carry ids without
// pulling in the pool itself. Ids are pool-local: comparing ids from two
// different pools is meaningless.
#pragma once

#include <cstdint>

namespace certchain::core {

/// Index into a DnPool. Dense, starting at 0, in first-intern order.
using DnId = std::uint32_t;

/// "No interned DN": the default for records/certificates that were built
/// without a pool. All pool fast paths check against this before comparing.
inline constexpr DnId kInvalidDnId = 0xffffffffu;

}  // namespace certchain::core
