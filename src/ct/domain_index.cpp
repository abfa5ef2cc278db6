#include "ct/domain_index.hpp"

#include <algorithm>
#include <cctype>

#include "util/hash.hpp"
#include "util/strings.hpp"

namespace certchain::ct {

namespace {

/// Lowercases `text` into `buffer` only when it actually carries uppercase
/// characters; the common already-lowercase query stays a zero-copy view.
std::string_view lower_into(std::string_view text, std::string& buffer) {
  const bool has_upper =
      std::any_of(text.begin(), text.end(), [](unsigned char c) {
        return std::isupper(c) != 0;
      });
  if (!has_upper) return text;
  buffer.assign(text);
  for (char& c : buffer) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return buffer;
}

/// The wildcard bucket a query probes: everything after the first label.
/// Empty when the name has no parent (single label), meaning no wildcard
/// pattern can cover it.
std::string_view parent_suffix(std::string_view domain) {
  const std::size_t dot = domain.find('.');
  if (dot == std::string_view::npos || dot + 1 >= domain.size()) return {};
  return domain.substr(dot + 1);
}

}  // namespace

DomainIndex::DomainIndex(std::size_t shard_count)
    : shards_(shard_count == 0 ? 1 : shard_count) {}

const DomainIndex::Shard& DomainIndex::shard_for(std::string_view key) const {
  return shards_[util::fnv1a64(key) % shards_.size()];
}

DomainIndex::Shard& DomainIndex::shard_for(std::string_view key) {
  return shards_[util::fnv1a64(key) % shards_.size()];
}

void DomainIndex::add(std::string_view domain, std::uint32_t entry,
                      const util::TimeRange& validity) {
  if (domain.empty()) return;
  if (util::starts_with(domain, "*.")) {
    const std::string_view suffix = domain.substr(2);
    auto& bucket = shard_for(suffix).wildcard;
    auto it = bucket.find(suffix);
    if (it == bucket.end()) {
      it = bucket.emplace(std::string(suffix), std::vector<DomainPosting>{}).first;
    }
    it->second.push_back(DomainPosting{entry, validity});
  } else {
    auto& bucket = shard_for(domain).exact;
    auto it = bucket.find(domain);
    if (it == bucket.end()) {
      it = bucket.emplace(std::string(domain), std::vector<DomainPosting>{}).first;
    }
    it->second.push_back(DomainPosting{entry, validity});
  }
}

template <typename Filter>
std::vector<std::uint32_t> DomainIndex::collect(std::string_view domain,
                                                Filter&& keep) const {
  std::string buffer;
  const std::string_view lowered = lower_into(domain, buffer);

  std::vector<std::uint32_t> out;
  const auto& exact_bucket = shard_for(lowered).exact;
  if (const auto it = exact_bucket.find(lowered); it != exact_bucket.end()) {
    for (const DomainPosting& p : it->second) {
      if (keep(p)) out.push_back(p.entry);
    }
  }
  if (const std::string_view suffix = parent_suffix(lowered); !suffix.empty()) {
    const auto& wild_bucket = shard_for(suffix).wildcard;
    if (const auto it = wild_bucket.find(suffix); it != wild_bucket.end()) {
      for (const DomainPosting& p : it->second) {
        if (keep(p)) out.push_back(p.entry);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::uint32_t> DomainIndex::candidates(std::string_view domain) const {
  return collect(domain, [](const DomainPosting&) { return true; });
}

std::vector<std::uint32_t> DomainIndex::candidates(
    std::string_view domain, const util::TimeRange& period) const {
  return collect(domain, [&period](const DomainPosting& p) {
    return p.validity.overlaps(period);
  });
}

}  // namespace certchain::ct
