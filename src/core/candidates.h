#ifndef HGMATCH_CORE_CANDIDATES_H_
#define HGMATCH_CORE_CANDIDATES_H_

#include <cstdint>
#include <vector>

#include "core/indexed_hypergraph.h"
#include "core/matching_order.h"
#include "core/result.h"
#include "core/types.h"

namespace hgmatch {

/// Working memory of the expansion kernel: flat arrays indexed by data
/// vertex id and by global data edge id, each entry tagged with a
/// generation stamp so that "clearing" an array is one counter increment.
/// An entry whose stamp differs from the current generation reads as
/// empty, which is what makes one scratch safe to reuse across calls,
/// plans and data hypergraphs: the arrays only ever grow (to the largest
/// |V| / |E| served) and never need a reset between users.
///
/// One scratch serves one thread; it is not thread-safe. Engines keep one
/// per worker thread (the scheduler) or one per call (the sequential and
/// BFS executors).
class ExpandScratch {
 public:
  ExpandScratch() = default;
  ExpandScratch(const ExpandScratch&) = delete;
  ExpandScratch& operator=(const ExpandScratch&) = delete;

  /// Moves the vertex generation and the edge mark base forward (never
  /// back: a lower value could revive stale entries), so tests can drive
  /// both counters to their wrap-around without 2^32 calls.
  void SetStampsForTesting(uint32_t vertex_generation, uint32_t edge_base);

 private:
  friend class Expander;

  // d_Hm(v) and the steps j < step whose matched hyperedge contains v;
  // valid only while stamp == vertex_generation_.
  struct VertexState {
    uint32_t stamp = 0;
    uint32_t count = 0;
    uint64_t steps_mask = 0;
  };

  // Grows the arrays to cover `num_vertices` / `num_edges` ids. New
  // entries carry stamp/mark 0, which no live generation uses.
  void Reserve(size_t num_vertices, size_t num_edges);

  // Starts a new vertex generation (every VertexState reads as empty).
  void NewVertexGeneration();

  // Reserves `span` consecutive mark values above every mark in use and
  // returns the first; the marks of all edges are then below it.
  uint32_t NewEdgeMarks(uint32_t span);

  std::vector<VertexState> vertices_;
  uint32_t vertex_generation_ = 0;
  uint32_t distinct_vertices_ = 0;  // |V(H_m)| of the current generation

  // Posting marks of Algorithm 4; every mark in use is <= edge_base_.
  std::vector<uint32_t> edge_marks_;
  uint32_t edge_base_ = 0;

  std::vector<EdgeId> candidates_;               // Expand() candidates
  std::vector<PlanStep::Profile> data_profiles_;  // Algorithm 5 side
};

/// The expansion kernel for one compiled query against one indexed data
/// hypergraph: candidate generation (Algorithm 4) plus embedding
/// validation (Algorithm 5). An Expander is a cheap view of (data, plan,
/// scratch) — three pointers — meant to be built per call; all state
/// lives in the ExpandScratch, whose buffers grow to the working-set size
/// and are then reused, so the steady-state hot path performs no
/// allocation. Thread-safety is the scratch's: one thread at a time.
///
/// Algorithm 4 runs as one pass of posting marks: for the k-th shared
/// query vertex (of K), every posting of every admissible data vertex
/// whose mark is base+k moves to base+k+1 (k = 0 starts from any stale
/// mark), so a posting appearing under several admissible vertices of one
/// u advances once (the union) and only edges present for every u reach
/// base+K (the intersection). Vertex multiplicities and Theorem V.2's step
/// masks are O(1) lookups into the stamped vertex array.
class Expander {
 public:
  /// `data`, `plan` and `scratch` must outlive the Expander.
  Expander(const IndexedHypergraph& data, const QueryPlan& plan,
           ExpandScratch* scratch);

  /// The EXPAND operator body: given the partial embedding
  /// m = embedding[0..step-1], appends to *out_valid every data hyperedge c
  /// such that m + c is a valid partial embedding of the first step+1 query
  /// hyperedges. Runs Algorithm 4 then Algorithm 5 on each candidate, and
  /// accumulates the candidates/filtered counters of Fig 9 into *stats.
  /// For step 0 this is the SCAN operator (full signature-table scan).
  void Expand(const EdgeId* embedding, uint32_t step,
              std::vector<EdgeId>* out_valid, MatchStats* stats);

  /// Standalone GenerateHyperedgeCandidates (Algorithm 4); sorted output.
  /// Prefer Expand() in hot loops.
  void GenerateCandidates(const EdgeId* embedding, uint32_t step,
                          std::vector<EdgeId>* out);

  /// Standalone IsValidEmbedding (Algorithm 5) for candidate `c` appended
  /// at `step`. `vertex_count_ok` reports whether the Observation V.5 check
  /// passed (the "Filtered" counter of Fig 9). Prefer Expand() in hot loops.
  bool IsValidEmbedding(const EdgeId* embedding, uint32_t step, EdgeId c,
                        bool* vertex_count_ok);

  /// Exact re-verification of a (partial or complete) embedding through the
  /// global vertex-class argument (see validation.h). Used by strict mode
  /// and tests.
  bool VerifyExact(const EdgeId* embedding, uint32_t size) const;

  const QueryPlan& plan() const { return *plan_; }
  const IndexedHypergraph& data() const { return *data_; }

 private:
  // Records, for every vertex of embedding[0..step-1], its multiplicity
  // and step mask in a fresh vertex generation. Must be called before the
  // *Impl helpers.
  void BuildVertexCounts(const EdgeId* embedding, uint32_t step);

  // Algorithm 4 / Algorithm 5 bodies; require BuildVertexCounts first.
  void GenerateCandidatesImpl(const EdgeId* embedding, uint32_t step,
                              std::vector<EdgeId>* out);
  bool IsValidImpl(uint32_t step, EdgeId c, bool* vertex_count_ok);

  const IndexedHypergraph* data_;
  const QueryPlan* plan_;
  ExpandScratch* s_;
};

}  // namespace hgmatch

#endif  // HGMATCH_CORE_CANDIDATES_H_
