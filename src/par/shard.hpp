// Line-aligned text sharding.
//
// Raw Zeek log text is split into N contiguous views whose boundaries always
// fall immediately after a '\n', so no line is ever split across shards and
// each shard can be parsed by an independent streaming reader (primed via
// zeek::scan_shard_header_state). Concatenating the shards in index order
// reproduces the input byte-for-byte. The study pipeline's fold is
// sequential and does not shard text (DESIGN.md §10.2).
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

namespace certchain::par {

/// One contiguous, line-aligned slice of a larger text.
struct TextShard {
  std::size_t index = 0;   // shard position, 0-based
  std::size_t offset = 0;  // byte offset of `text` within the original input
  std::string_view text;
};

/// Splits `text` into exactly `shards` line-aligned slices. Every byte of
/// the input lands in exactly one shard; a boundary is only placed at
/// position p when p == 0 or text[p - 1] == '\n'. When the text has fewer
/// lines than requested shards, the surplus shards are empty (kept so shard
/// indices stay stable for per-shard result slots). `shards` must be >= 1.
std::vector<TextShard> split_line_aligned(std::string_view text,
                                          std::size_t shards);

}  // namespace certchain::par
