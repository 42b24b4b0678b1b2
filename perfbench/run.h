#ifndef PERFBENCH_RUN_H_
#define PERFBENCH_RUN_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/result.h"
#include "net/async_client.h"
#include "net/server.h"
#include "obs/trace.h"
#include "parallel/executor.h"

namespace perfbench {

/// The benchmark's one clock: the server stamps QuerySpans with it too.
inline double Now() { return hgmatch::MonotonicSeconds(); }

/// A loaded, indexed graph behind a started loopback MatchServer.
struct Served {
  std::unique_ptr<IndexedHypergraph> index;
  std::unique_ptr<hgmatch::MatchServer> server;  // declared last: stops first
  double load_s = 0;   // LoadHypergraphBinary
  double build_s = 0;  // IndexedHypergraph::Build
  double start_s = 0;  // MatchServer construction + Start
};

/// Stops the server, then frees the index it serves.
inline void TearDown(Served* s) {
  s->server.reset();
  s->index.reset();
}

/// Loads `graph_path`, indexes it and starts a server with `workers` pool
/// threads and one IO thread. The sum of the three times is setup_s.
Result<Served> Setup(const std::string& graph_path, uint32_t workers);

/// One timed submission as the client saw it.
struct Request {
  uint32_t query = 0;  // index into Stream::subs
  double due = 0;   // when the load generator was due to send it
  double send = 0;  // when Submit was called
  double recv = 0;  // when the outcome callback ran
  bool answered = false;      // the callback ran
  bool transport_ok = false;  // ... with the server's reply
  bool mirrored = false;
  hgmatch::QueryStatus status = hgmatch::QueryStatus::kOk;
  uint64_t embeddings = 0;
  hgmatch::QuerySpan span;  // server stamps (traced windows only)
};

/// Plan-cache and duplicate-handling counters of the metrics registry,
/// as deltas over a window.
struct ServiceCounters {
  uint64_t hits_exact = 0;
  uint64_t hits_iso = 0;
  uint64_t misses = 0;
  uint64_t mirrored = 0;
  uint64_t redispatched = 0;
  uint64_t rejected = 0;
};

struct WindowResult {
  std::deque<Request> reqs;  // the submissions sent, in send order
  double t0 = 0;             // window start
  double t_end = 0;          // window end
  double connect_ms = 0;      // per connection, HELLO included
  double cpu_s = 0;  // process CPU time from window start to last answer
  hgmatch::ClientTransferStats transfer;  // summed over connections
  ServiceCounters counters;
  uint32_t warmup_failures = 0;
};

/// Connects the workload's clients, sends the warm-up queries, then runs
/// the timed window for `seconds` from one load-generator thread and waits
/// for every outstanding answer. A closed loop cycles through the stream
/// for as long as the window lasts; an open loop sends it once, on time.
Result<WindowResult> RunWindow(const WorkloadSpec& spec, Served& served,
                               const Stream& stream, double seconds,
                               bool trace);

/// Exact wire cost of one query: the first `count` stream queries sent one
/// at a time on a fresh connection. `failures` counts wrong answers.
struct BytesPass {
  double bytes_per_query = 0;
  double frames_per_query = 0;
  uint32_t failures = 0;
};
Result<BytesPass> MeasureBytes(Served& served, const Stream& stream,
                               bool trace, size_t count);

/// In-memory span log of the traced run, written out at exit as JSON lines.
class SpanLog {
 public:
  uint64_t Add(const char* name, double start, double end, uint64_t parent,
               uint64_t query);
  Status Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start, end;
    uint64_t parent, query;
  };
  std::vector<Span> spans_;
};

/// Direct calls into each layer's public function for one distinct query.
struct LayerSample {
  uint32_t base = 0;
  double plan_s = 0;        // BuildQueryPlan
  double canon_s = 0;       // CanonicalQueryKey
  double seq_s = 0;         // ExecutePlanSequential
  double par_s = 0;         // ExecutePlanParallel on the pool width
  double svc_submit_s = 0;  // inside MatchService::Submit
  hgmatch::MatchStats seq;
  hgmatch::ParallelResult par;
};

/// Times every layer on the first `count` distinct queries of the stream
/// and records a span per call. `mismatches` counts answers that differ
/// from the reference counts.
Result<std::vector<LayerSample>> RunLayers(const IndexedHypergraph& index,
                                           const Stream& stream, size_t count,
                                           uint32_t workers, SpanLog* spans,
                                           uint32_t* mismatches);

}  // namespace perfbench

#endif  // PERFBENCH_RUN_H_
