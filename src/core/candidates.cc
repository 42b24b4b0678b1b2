#include "core/candidates.h"

#include <algorithm>
#include <limits>

#include "core/validation.h"

namespace hgmatch {

void ExpandScratch::Reserve(size_t num_vertices, size_t num_edges) {
  if (vertices_.size() < num_vertices) vertices_.resize(num_vertices);
  if (edge_marks_.size() < num_edges) edge_marks_.resize(num_edges, 0);
}

void ExpandScratch::NewVertexGeneration() {
  if (++vertex_generation_ == 0) {
    // Wrapped: stale stamps could now collide with new generations.
    for (VertexState& v : vertices_) v.stamp = 0;
    vertex_generation_ = 1;
  }
  distinct_vertices_ = 0;
}

uint32_t ExpandScratch::NewEdgeMarks(uint32_t span) {
  if (span > std::numeric_limits<uint32_t>::max() - edge_base_) {
    std::fill(edge_marks_.begin(), edge_marks_.end(), 0);
    edge_base_ = 0;
  }
  const uint32_t base = edge_base_;
  edge_base_ += span;
  return base;
}

void ExpandScratch::SetStampsForTesting(uint32_t vertex_generation,
                                        uint32_t edge_base) {
  vertex_generation_ = std::max(vertex_generation_, vertex_generation);
  edge_base_ = std::max(edge_base_, edge_base);
}

Expander::Expander(const IndexedHypergraph& data, const QueryPlan& plan,
                   ExpandScratch* scratch)
    : data_(&data), plan_(&plan), s_(scratch) {
  s_->Reserve(data.graph().NumVertices(), data.graph().NumEdges());
}

void Expander::BuildVertexCounts(const EdgeId* embedding, uint32_t step) {
  s_->NewVertexGeneration();
  const uint32_t gen = s_->vertex_generation_;
  ExpandScratch::VertexState* state = s_->vertices_.data();
  const Hypergraph& h = data_->graph();
  uint32_t distinct = 0;
  for (uint32_t j = 0; j < step; ++j) {
    const uint64_t bit = 1ULL << j;
    for (VertexId v : h.edge(embedding[j])) {
      ExpandScratch::VertexState& st = state[v];
      if (st.stamp != gen) {
        st = {gen, 1, bit};
        ++distinct;
      } else {
        ++st.count;
        st.steps_mask |= bit;
      }
    }
  }
  s_->distinct_vertices_ = distinct;
}

void Expander::GenerateCandidatesImpl(const EdgeId* embedding, uint32_t step,
                                      std::vector<EdgeId>* out) {
  out->clear();
  const PlanStep& s = plan_->steps[step];
  const Partition* part = data_->FindPartition(s.signature);
  if (part == nullptr) return;  // Observation V.1: no table, no candidates.

  if (s.adjacent_prev.empty()) {
    // SCAN semantics: first hyperedge of the order (or of a disconnected
    // component) matches every hyperedge of its signature table.
    *out = part->edges();
  } else {
    const Hypergraph& h = data_->graph();
    const ExpandScratch::VertexState* state = s_->vertices_.data();
    uint32_t* marks = s_->edge_marks_.data();

    // Line 1: vertices matched by non-adjacent query hyperedges must not be
    // incident to the new hyperedge (Observation V.3) — a vertex is in
    // V_nonincdt iff its step mask meets these steps.
    uint64_t nonincident_steps = 0;
    for (uint32_t j : s.nonadjacent_prev) nonincident_steps |= 1ULL << j;

    uint32_t num_shared = 0;
    for (const auto& infos : s.shared_info) {
      num_shared += static_cast<uint32_t>(infos.size());
    }
    const uint32_t base = s_->NewEdgeMarks(num_shared);

    // Lines 3-7: for the k-th shared query vertex u, V_incdt holds the data
    // vertices that may be matched to u (Observations V.2/V.3/V.4; every
    // vertex of a matched hyperedge carries the current stamp). Postings
    // of V_incdt in this signature's table that survived u_0..u_{k-1}
    // carry mark base+k and advance to base+k+1 — once, however many
    // vertices of V_incdt list them — so the edges reaching base+K are
    // the intersection over u of the per-u posting unions.
    uint32_t k = 0;
    for (size_t a = 0; a < s.adjacent_prev.size(); ++a) {
      const VertexSet& fe = h.edge(embedding[s.adjacent_prev[a].step]);
      for (const PlanStep::SharedVertexInfo& info : s.shared_info[a]) {
        const uint32_t from = base + k;
        // k = 0 accepts every stale mark (all <= base); later rounds
        // exactly base+k. One unsigned range test covers both.
        const uint32_t lo = k == 0 ? 0 : from;
        const bool last = ++k == num_shared;
        size_t advanced = 0;
        for (VertexId v : fe) {
          if (h.label(v) != info.label) continue;
          if (state[v].count != info.degree_before) continue;
          if (state[v].steps_mask & nonincident_steps) continue;
          for (EdgeId e : part->Postings(v)) {
            if (marks[e] - lo > from - lo) continue;
            marks[e] = from + 1;
            ++advanced;
            if (last) out->push_back(e);
          }
        }
        if (advanced == 0) {
          out->clear();
          return;
        }
      }
    }
    std::sort(out->begin(), out->end());
  }

  // A data hyperedge can appear in at most one embedding position (query
  // hyperedges are distinct vertex sets and f is injective); drop matched
  // edges that share this signature so downstream validation never sees a
  // duplicate.
  for (uint32_t j = 0; j < step; ++j) {
    if (data_->PartitionOf(embedding[j]) != part->id()) continue;
    auto it = std::lower_bound(out->begin(), out->end(), embedding[j]);
    if (it != out->end() && *it == embedding[j]) out->erase(it);
  }
}

bool Expander::IsValidImpl(uint32_t step, EdgeId c, bool* vertex_count_ok) {
  *vertex_count_ok = false;
  const PlanStep& s = plan_->steps[step];
  const Hypergraph& h = data_->graph();
  const ExpandScratch::VertexState* state = s_->vertices_.data();
  const uint32_t gen = s_->vertex_generation_;

  // Observation V.5: |V(q')| must equal |V(H_m')|.
  uint32_t new_vertices = 0;
  for (VertexId v : h.edge(c)) new_vertices += state[v].stamp != gen;
  if (s_->distinct_vertices_ + new_vertices != s.num_query_vertices_after) {
    return false;
  }
  *vertex_count_ok = true;

  // Theorem V.2: the multiset of vertex profiles of the new hyperedge's
  // vertices must equal the precomputed query-side profiles. A vertex's
  // step set is {step} plus the steps j < step whose hyperedge holds it.
  std::vector<PlanStep::Profile>& profiles = s_->data_profiles_;
  profiles.clear();
  for (VertexId v : h.edge(c)) {
    const uint64_t before = state[v].stamp == gen ? state[v].steps_mask : 0;
    profiles.push_back({h.label(v), (1ULL << step) | before});
  }
  std::sort(profiles.begin(), profiles.end());
  return profiles == s.query_profiles;
}

void Expander::Expand(const EdgeId* embedding, uint32_t step,
                      std::vector<EdgeId>* out_valid, MatchStats* stats) {
  BuildVertexCounts(embedding, step);
  std::vector<EdgeId>& candidates = s_->candidates_;
  GenerateCandidatesImpl(embedding, step, &candidates);
  stats->candidates += candidates.size();
  out_valid->clear();
  for (EdgeId c : candidates) {
    bool vertex_count_ok = false;
    if (IsValidImpl(step, c, &vertex_count_ok)) out_valid->push_back(c);
    if (vertex_count_ok) ++stats->filtered;
  }
  ++stats->expansions;
}

void Expander::GenerateCandidates(const EdgeId* embedding, uint32_t step,
                                  std::vector<EdgeId>* out) {
  BuildVertexCounts(embedding, step);
  GenerateCandidatesImpl(embedding, step, out);
}

bool Expander::IsValidEmbedding(const EdgeId* embedding, uint32_t step,
                                EdgeId c, bool* vertex_count_ok) {
  BuildVertexCounts(embedding, step);
  return IsValidImpl(step, c, vertex_count_ok);
}

bool Expander::VerifyExact(const EdgeId* embedding, uint32_t size) const {
  std::vector<EdgeId> order;
  order.reserve(size);
  for (uint32_t i = 0; i < size; ++i) {
    order.push_back(plan_->steps[i].query_edge);
  }
  return EmbeddingConsistent(*plan_->query, data_->graph(), order.data(),
                             embedding, size);
}

}  // namespace hgmatch
