#include "io/shard_io.h"

#include <utility>

#include "core/shard.h"
#include "io/binary_format.h"

namespace hgmatch {

std::string ShardPath(const std::string& prefix, uint32_t index,
                      uint32_t num_shards) {
  return prefix + ".shard" + std::to_string(index) + "-of" +
         std::to_string(num_shards) + ".hgb";
}

Result<std::vector<std::string>> SaveShards(const Hypergraph& h,
                                            const std::string& prefix,
                                            uint32_t num_shards) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be at least 1");
  }
  const std::vector<Hypergraph> parts = SplitHypergraph(h, num_shards);
  std::vector<std::string> paths;
  paths.reserve(parts.size());
  for (uint32_t k = 0; k < parts.size(); ++k) {
    std::string path = ShardPath(prefix, k, num_shards);
    Status saved = SaveHypergraphBinary(parts[k], path);
    if (!saved.ok()) return saved;
    paths.push_back(std::move(path));
  }
  return paths;
}

Result<Hypergraph> LoadShards(const std::vector<std::string>& paths) {
  if (paths.empty()) {
    return Status::InvalidArgument("no shard paths given");
  }
  std::vector<Hypergraph> parts;
  parts.reserve(paths.size());
  for (const std::string& path : paths) {
    Result<Hypergraph> part = LoadHypergraphBinary(path);
    if (!part.ok()) return part.status();
    parts.push_back(std::move(part).value());
  }
  return MergeShards(parts);
}

}  // namespace hgmatch
