#ifndef HGMATCH_IO_SHARD_IO_H_
#define HGMATCH_IO_SHARD_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/hypergraph.h"
#include "util/status.h"

namespace hgmatch {

/// On-disk layout of a storage-sharded hypergraph (core/shard.h): each
/// part is an ordinary .hgb file (io/binary_format.h, HGM2 chunked +
/// compressed), named
///
///   <prefix>.shard<k>-of<K>.hgb      k in [0, K)
///
/// so a shard set is self-describing from its file names and each part
/// loads with the stock LoadHypergraphBinary — no new container format.

/// The path of part `index` of a `num_shards`-way split under `prefix`.
std::string ShardPath(const std::string& prefix, uint32_t index,
                      uint32_t num_shards);

/// Splits `h` into `num_shards` parts (SplitHypergraph) and writes each to
/// ShardPath(prefix, k, num_shards). Returns the written paths.
Result<std::vector<std::string>> SaveShards(const Hypergraph& h,
                                            const std::string& prefix,
                                            uint32_t num_shards);

/// Loads every path as a binary hypergraph part and merges them
/// (MergeShards): the round-trip inverse of SaveShards, and the way a
/// serving process re-assembles a shard set it hosts whole.
Result<Hypergraph> LoadShards(const std::vector<std::string>& paths);

}  // namespace hgmatch

#endif  // HGMATCH_IO_SHARD_IO_H_
