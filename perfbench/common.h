#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/hypergraph.h"
#include "core/indexed_hypergraph.h"
#include "util/status.h"

namespace perfbench {

using hgmatch::Hypergraph;
using hgmatch::IndexedHypergraph;
using hgmatch::Result;
using hgmatch::Status;

/// One benchmark workload: the data graph it serves, the query classes it
/// sends and how the load generator sends them.
struct WorkloadSpec {
  const char* name;
  const char* profile;  // gen/dataset_profiles.h abbreviation
  double scale;
  std::vector<const char*> classes;  // query classes, cycled: "q2".."q6"

  /// Reference-kernel candidate band [min, max] a sampled query must fall
  /// in to join the stream (0 = no bound). Candidates are exact counts, so
  /// the band is a deterministic function of the seed.
  uint64_t min_candidates;
  uint64_t max_candidates;

  bool open_loop;
  uint32_t connections;
  uint32_t window;        // closed loop: requests outstanding per connection
  double rate_qps;        // open loop: fixed send rate
  double stream_per_s;    // closed loop: submissions generated per second
  double repeat_share;    // open loop: share of the stream drawn from the
                          // hot set as renamed, edge-reordered repeats
  uint32_t hot_set;       // open loop: size of the hot set
  double latency_limit_ms;  // ontime_frac threshold
  uint32_t layer_queries;   // distinct queries timed layer by layer
};

/// The workload named `name`, or null for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Exact per-query counts of the sequential reference kernel
/// (MatchSequential). Every wire answer is checked against `embeddings`.
struct RefCounts {
  uint64_t embeddings = 0;
  uint64_t candidates = 0;
  uint64_t filtered = 0;
  uint64_t expansions = 0;
};

/// Everything one run sends, made by `hgbench gen` from the seed alone.
/// Submission i is query `subs[i]` with reference counts `refs[i]`; it is
/// an instance of isomorphism class `base[i]` (renamed repeats share their
/// class). The warm-up submissions go out before the timed window.
struct Stream {
  std::vector<Hypergraph> warmup;
  std::vector<RefCounts> warmup_refs;
  std::vector<Hypergraph> subs;
  std::vector<RefCounts> refs;
  std::vector<uint32_t> base;
};

/// The workload's data graph: the profile's own synthetic stand-in, the
/// same for every seed (the seed varies the queries), as a fixed dataset
/// is in the paper's experiments.
Hypergraph GenerateGraph(const WorkloadSpec& spec);

/// Samples the submission stream for a run of `seconds` and computes the
/// reference counts of every distinct query on `threads` threads.
Result<Stream> GenerateStream(const WorkloadSpec& spec,
                              const IndexedHypergraph& data, uint64_t seed,
                              double seconds, uint32_t threads);

Status SaveStream(const Stream& stream, const std::string& path);
Result<Stream> LoadStream(const std::string& path);

/// Runs fn(i) for i in [0, n) on `threads` threads (dynamic assignment).
void ParallelFor(size_t n, uint32_t threads,
                 const std::function<void(size_t)>& fn);

/// Order statistics of a sample (nearest rank); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Sum(const std::vector<double>& values);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
