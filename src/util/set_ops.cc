#include "util/set_ops.h"

#include <algorithm>

namespace hgmatch {
namespace {

// Sizes more asymmetric than this ratio take the galloping (binary-search)
// path; the constant follows common practice in search-engine posting-list
// kernels.
constexpr size_t kGallopRatio = 32;

// Galloping intersection: for each element of the small list, locate it in
// the large list via exponential + binary search, advancing a frontier.
void IntersectGallop(const std::vector<uint32_t>& small,
                     const std::vector<uint32_t>& large,
                     std::vector<uint32_t>* out) {
  size_t lo = 0;
  for (uint32_t x : small) {
    // Exponential probe from the current frontier.
    size_t step = 1;
    size_t hi = lo;
    while (hi < large.size() && large[hi] < x) {
      lo = hi;
      hi += step;
      step <<= 1;
    }
    if (hi > large.size()) hi = large.size();
    const auto it = std::lower_bound(large.begin() + lo, large.begin() + hi, x);
    lo = static_cast<size_t>(it - large.begin());
    if (lo < large.size() && large[lo] == x) {
      out->push_back(x);
      ++lo;
    }
    if (lo >= large.size()) break;
  }
}

void IntersectMerge(const std::vector<uint32_t>& a,
                    const std::vector<uint32_t>& b,
                    std::vector<uint32_t>* out) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      out->push_back(a[i]);
      ++i;
      ++j;
    }
  }
}

}  // namespace

void Intersect(const std::vector<uint32_t>& a, const std::vector<uint32_t>& b,
               std::vector<uint32_t>* out) {
  out->clear();
  if (a.empty() || b.empty()) return;
  const auto& small = a.size() <= b.size() ? a : b;
  const auto& large = a.size() <= b.size() ? b : a;
  out->reserve(small.size());
  if (large.size() / (small.size() + 1) >= kGallopRatio) {
    IntersectGallop(small, large, out);
  } else {
    IntersectMerge(a, b, out);
  }
}

size_t IntersectSize(const std::vector<uint32_t>& a,
                     const std::vector<uint32_t>& b) {
  size_t i = 0, j = 0, n = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++n;
      ++i;
      ++j;
    }
  }
  return n;
}

bool Contains(const std::vector<uint32_t>& a, uint32_t x) {
  return std::binary_search(a.begin(), a.end(), x);
}

bool Intersects(const std::vector<uint32_t>& a,
                const std::vector<uint32_t>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

void InsertSorted(std::vector<uint32_t>* a, uint32_t x) {
  auto it = std::lower_bound(a->begin(), a->end(), x);
  if (it == a->end() || *it != x) a->insert(it, x);
}

void SortUnique(std::vector<uint32_t>* a) {
  std::sort(a->begin(), a->end());
  a->erase(std::unique(a->begin(), a->end()), a->end());
}

}  // namespace hgmatch
