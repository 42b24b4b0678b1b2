#ifndef HGMATCH_GEN_DATASET_PROFILES_H_
#define HGMATCH_GEN_DATASET_PROFILES_H_

#include <string>
#include <vector>

#include "core/hypergraph.h"
#include "gen/generator.h"

namespace hgmatch {

/// Published shape statistics of one of the paper's ten datasets
/// (Table II) together with a generator configuration that reproduces the
/// shape synthetically (the offline substitute).
struct DatasetProfile {
  std::string name;         // paper's abbreviation (HC, MA, ...)
  std::string description;  // what the real dataset contains

  // Published statistics (Table II), for reference printing.
  uint64_t paper_vertices = 0;
  uint64_t paper_edges = 0;
  uint64_t paper_labels = 0;
  uint32_t paper_max_arity = 0;
  double paper_avg_arity = 0;

  /// Generator settings that reproduce the shape at scale 1.0.
  GeneratorConfig config;

  /// Scale applied by default in benches (the two largest datasets, SA and
  /// AR, default below 1.0 so the full suite stays laptop-runnable).
  double default_scale = 1.0;

  /// Generates the synthetic stand-in. `scale` multiplies vertex and edge
  /// counts (1.0 = the paper's published size).
  Hypergraph Generate(double scale) const;
  Hypergraph GenerateDefault() const { return Generate(default_scale); }
};

/// All ten profiles of Table II, in the paper's order:
/// HC, MA, CH, CP, SB, HB, WT, TC, SA, AR.
const std::vector<DatasetProfile>& AllDatasetProfiles();

/// Profile by abbreviation; nullptr when unknown.
const DatasetProfile* FindDatasetProfile(const std::string& name);

}  // namespace hgmatch

#endif  // HGMATCH_GEN_DATASET_PROFILES_H_
