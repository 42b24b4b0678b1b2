// The traced run's layer-by-layer pass: each distinct query goes through
// every layer's public entry point in turn, each call timed and logged as
// a span under one per-query root span.

#include <cstdio>
#include <fstream>
#include <unordered_set>

#include "core/canonical.h"
#include "core/hgmatch.h"
#include "core/matching_order.h"
#include "parallel/service.h"
#include "run.h"

namespace perfbench {

uint64_t SpanLog::Add(const char* name, double start, double end,
                      uint64_t parent, uint64_t query) {
  spans_.push_back({name, start, end, parent, query});
  return spans_.size();  // ids start at 1; 0 = no parent
}

Status SpanLog::Write(const std::string& path) const {
  std::ofstream f(path);
  char line[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                  "\"end\": %.9f, \"parent\": %llu, \"query\": %llu}\n",
                  i + 1, s.name, s.start, s.end,
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.query));
    f << line;
  }
  if (!f) return Status::IOError("cannot write " + path);
  return Status::OK();
}

Result<std::vector<LayerSample>> RunLayers(const IndexedHypergraph& index,
                                           const Stream& stream, size_t count,
                                           uint32_t workers, SpanLog* spans,
                                           uint32_t* mismatches) {
  hgmatch::ServiceOptions service_options;
  service_options.parallel.num_threads = workers;
  hgmatch::MatchService service(index, service_options);
  hgmatch::ParallelOptions parallel;
  parallel.num_threads = workers;

  std::vector<LayerSample> samples;
  std::unordered_set<uint32_t> seen;
  for (size_t i = 0; i < stream.subs.size() && samples.size() < count; ++i) {
    if (!seen.insert(stream.base[i]).second) continue;
    const Hypergraph& q = stream.subs[i];
    const RefCounts& ref = stream.refs[i];
    LayerSample s;
    s.base = stream.base[i];
    const double t0 = Now();
    std::vector<std::pair<const char*, double>> marks;

    Result<hgmatch::QueryPlan> plan = hgmatch::BuildQueryPlan(q, index);
    if (!plan.ok()) return plan.status();
    marks.emplace_back("core.plan", Now());
    (void)hgmatch::CanonicalQueryKey(q);
    marks.emplace_back("core.canon", Now());
    s.seq = hgmatch::ExecutePlanSequential(index, plan.value(), {}, nullptr);
    marks.emplace_back("core.seq", Now());
    s.par = hgmatch::ExecutePlanParallel(index, plan.value(), parallel);
    marks.emplace_back("sched.par", Now());
    hgmatch::Ticket ticket = service.SubmitBorrowed(q);
    marks.emplace_back("service.submit", Now());
    const hgmatch::QueryOutcome& outcome = ticket.Wait();
    marks.emplace_back("service.wait", Now());

    const uint64_t root = spans->Add("layer.query", t0, Now(), 0, s.base);
    double start = t0;
    double* durations[] = {&s.plan_s, &s.canon_s, &s.seq_s, &s.par_s,
                           &s.svc_submit_s, nullptr};
    for (size_t k = 0; k < marks.size(); ++k) {
      spans->Add(marks[k].first, start, marks[k].second, root, s.base);
      if (durations[k] != nullptr) *durations[k] = marks[k].second - start;
      start = marks[k].second;
    }

    const bool ok = s.seq.embeddings == ref.embeddings &&
                    s.seq.candidates == ref.candidates &&
                    s.seq.filtered == ref.filtered &&
                    s.seq.expansions == ref.expansions &&
                    s.par.stats.embeddings == ref.embeddings &&
                    outcome.status == hgmatch::QueryStatus::kOk &&
                    outcome.stats.embeddings == ref.embeddings;
    if (!ok) ++*mismatches;
    samples.push_back(std::move(s));
  }
  service.Shutdown();
  return samples;
}

}  // namespace perfbench
