#include "core/dn_pool.hpp"

#include <algorithm>
#include <cstring>

namespace certchain::core {

namespace {

constexpr std::size_t kArenaChunkBytes = 64 * 1024;

/// Mirrors zeek::parse_dn_lenient: malformed input degrades to a single
/// CN=<raw> RDN so the row stays visible to the analysis.
x509::DistinguishedName parse_lenient(std::string_view raw) {
  if (auto parsed = x509::DistinguishedName::parse(raw)) return *std::move(parsed);
  x509::DistinguishedName fallback;
  fallback.add("CN", std::string(raw));
  return fallback;
}

}  // namespace

std::string_view DnPool::arena_store(std::string_view bytes) {
  if (arena_used_ + bytes.size() > arena_capacity_) {
    const std::size_t chunk = std::max(kArenaChunkBytes, bytes.size());
    arena_chunks_.push_back(std::make_unique<char[]>(chunk));
    arena_used_ = 0;
    arena_capacity_ = chunk;
  }
  char* dest = arena_chunks_.back().get() + arena_used_;
  std::memcpy(dest, bytes.data(), bytes.size());
  arena_used_ += bytes.size();
  return std::string_view(dest, bytes.size());
}

DnId DnPool::intern_parsed(x509::DistinguishedName name) {
  const auto it = by_canonical_.find(name.canonical());
  if (it != by_canonical_.end()) return it->second;
  const DnId id = static_cast<DnId>(entries_.size());
  entries_.push_back(std::move(name));
  by_canonical_.emplace(std::string_view(entries_.back().canonical()), id);
  return id;
}

DnPool::Interned DnPool::intern_raw(std::string_view raw) {
  const auto it = by_raw_.find(raw);
  if (it != by_raw_.end()) return it->second;
  const Interned interned = memo_raw(raw);
  by_raw_.emplace(arena_store(raw), interned);
  return interned;
}

DnPool::Interned DnPool::memo_raw(std::string_view raw) {
  x509::DistinguishedName parsed = parse_lenient(raw);
  const auto canonical_it = by_canonical_.find(parsed.canonical());
  if (canonical_it == by_canonical_.end()) {
    const DnId id = intern_parsed(std::move(parsed));
    return Interned{id, &entries_[id]};
  }
  // Canonical collision with a different spelling: keep this parse as a
  // variant so name_for_raw() renders these exact bytes.
  const DnId id = canonical_it->second;
  if (parsed == entries_[id]) return Interned{id, &entries_[id]};
  variants_.push_back(std::move(parsed));
  return Interned{id, &variants_.back()};
}

DnId DnPool::intern(const x509::DistinguishedName& name) {
  const auto it = by_canonical_.find(name.canonical());
  if (it != by_canonical_.end()) return it->second;
  return intern_parsed(name);
}

DnId DnPool::find_canonical(std::string_view canonical) const {
  const auto it = by_canonical_.find(canonical);
  return it == by_canonical_.end() ? kInvalidDnId : it->second;
}

}  // namespace certchain::core
