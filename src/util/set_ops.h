#ifndef HGMATCH_UTIL_SET_OPS_H_
#define HGMATCH_UTIL_SET_OPS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.h"

namespace hgmatch {

/// Sorted-set algebra on duplicate-free ascending uint32 vectors, used by
/// the baselines, the generators, the matching order and the reference
/// oracle. (HGMatch's own candidate generation, Algorithm 4, computes its
/// unions and intersections with posting marks; see core/candidates.h.)
/// Intersection has a scalar merge path plus a galloping path that is
/// automatically selected when the input sizes are very asymmetric.

/// out = a ∩ b. `out` is cleared first. Aliasing with inputs is not allowed.
void Intersect(const std::vector<uint32_t>& a, const std::vector<uint32_t>& b,
               std::vector<uint32_t>* out);

/// Returns |a ∩ b| without materialising the intersection.
size_t IntersectSize(const std::vector<uint32_t>& a,
                     const std::vector<uint32_t>& b);

/// True iff x ∈ a (binary search).
bool Contains(const std::vector<uint32_t>& a, uint32_t x);

/// True iff a ∩ b is non-empty (early-exit merge/gallop).
bool Intersects(const std::vector<uint32_t>& a, const std::vector<uint32_t>& b);

/// Inserts x into sorted vector a, keeping it sorted; no-op if present.
void InsertSorted(std::vector<uint32_t>* a, uint32_t x);

/// Sorts and removes duplicates in place.
void SortUnique(std::vector<uint32_t>* a);

}  // namespace hgmatch

#endif  // HGMATCH_UTIL_SET_OPS_H_
