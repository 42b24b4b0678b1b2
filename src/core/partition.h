#ifndef HGMATCH_CORE_PARTITION_H_
#define HGMATCH_CORE_PARTITION_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/signature.h"
#include "core/types.h"

namespace hgmatch {

/// A hyperedge table (Section IV.B): all data hyperedges sharing one
/// hyperedge signature, together with the table's inverted hyperedge index
/// (Section IV.C) mapping each vertex that occurs in the table to the sorted
/// posting list of its incident hyperedges *within this table*.
///
/// Posting lists store global edge ids in ascending order. Candidate
/// generation (Algorithm 4) fetches he(v, S(e_q)) with a single hash lookup
/// and computes the unions and intersections over these lists in one pass
/// of per-edge marks indexed by global edge id (see core/candidates.h), so
/// the table needs no further per-query structure.
class Partition {
 public:
  Partition(PartitionId id, Signature signature)
      : id_(id), signature_(std::move(signature)) {}

  PartitionId id() const { return id_; }
  const Signature& signature() const { return signature_; }

  /// All hyperedges in this table, ascending by global edge id. This count
  /// is the hyperedge cardinality Card(e_q, H) for any query hyperedge whose
  /// signature equals this table's (Definition V.2), available in O(1).
  const EdgeSet& edges() const { return edges_; }
  size_t size() const { return edges_.size(); }

  /// Posting list of v within this table: he(v, S) sorted ascending.
  /// Returns an empty list when v does not occur in the table.
  const EdgeSet& Postings(VertexId v) const;

  /// Number of distinct vertices appearing in the table.
  size_t NumIndexedVertices() const { return index_.size(); }

  /// Appends a hyperedge (must be called with ascending global edge ids;
  /// this keeps every posting list sorted without a separate sort pass).
  void Add(EdgeId e, const VertexSet& vertices);

  /// Estimated memory of the inverted index (posting lists + table header),
  /// reported by Exp-1.
  uint64_t IndexBytes() const;

 private:
  PartitionId id_;
  Signature signature_;
  EdgeSet edges_;
  std::unordered_map<VertexId, EdgeSet> index_;
};

}  // namespace hgmatch

#endif  // HGMATCH_CORE_PARTITION_H_
