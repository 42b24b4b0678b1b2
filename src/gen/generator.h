#ifndef HGMATCH_GEN_GENERATOR_H_
#define HGMATCH_GEN_GENERATOR_H_

#include <cstdint>

#include "core/hypergraph.h"
#include "util/rng.h"

namespace hgmatch {

/// Distribution of hyperedge arities.
enum class ArityDistribution {
  kUniform,    // uniform over [arity_min, arity_max]
  kGeometric,  // arity_min + Geometric(arity_param) - 1, capped at arity_max
  kZipf,       // arity_min + Zipf(arity_max - arity_min + 1, arity_param)
};

/// Configuration of the synthetic hypergraph generator. The generator is
/// the offline substitute for the paper's public datasets:
/// it reproduces the published shape statistics — vertex count, hyperedge
/// count, label alphabet, arity distribution bounded by the published
/// maximum, and heavy-tailed vertex degrees via Zipf-skewed vertex picking —
/// which are the properties the measured effects depend on.
struct GeneratorConfig {
  uint64_t seed = 1;
  uint32_t num_vertices = 1000;
  uint32_t num_edges = 1000;
  uint32_t num_labels = 4;

  ArityDistribution arity_dist = ArityDistribution::kGeometric;
  uint32_t arity_min = 2;
  uint32_t arity_max = 10;
  /// kGeometric: success probability p (mean arity ≈ arity_min + 1/p - 1);
  /// kZipf: skew s.
  double arity_param = 0.5;

  /// Zipf skew of vertex selection; > 0 yields power-law-ish vertex degrees
  /// (the workload disparity that motivates work stealing, Section VI.C).
  double vertex_skew = 0.6;

  /// Zipf skew of label assignment; > 0 makes some labels much more common
  /// (as in real datasets with small alphabets).
  double label_skew = 0.5;

  /// Per-hyperedge label locality in [0, 1]: each hyperedge draws a "theme"
  /// label, and each member vertex comes from the theme's label class with
  /// this probability (otherwise from the global distribution). Real
  /// hypergraphs are strongly thematic (a shopper's basket, a user's
  /// reviews, a committee), which is what makes hyperedge signatures
  /// collide and gives queries non-trivial result counts; 0 disables.
  double label_locality = 0.0;
};

/// Generates a simple labelled hypergraph. Repeated hyperedges and repeated
/// vertices within a hyperedge are removed (as in the paper's dataset
/// preprocessing), so the result can have slightly fewer than
/// `config.num_edges` hyperedges when the space of distinct edges is tight.
/// Deterministic in `config.seed`.
Hypergraph GenerateHypergraph(const GeneratorConfig& config);

/// Samples one arity from the configured distribution (exposed for tests).
uint32_t SampleArity(const GeneratorConfig& config, Rng* rng);

}  // namespace hgmatch

#endif  // HGMATCH_GEN_GENERATOR_H_
