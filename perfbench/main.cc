// hgbench: the end-to-end benchmark of hgmatch over the wire.
//
//   hgbench gen --workload W --seed S --seconds T --dir D
//       Generates the data graph (D/graph.hgb) and the submission stream
//       with reference counts (D/stream.bin). Untimed.
//   hgbench run --workload W --seed S --seconds T --trace 0|1 --dir D
//               --out RESULT.json [--spans SPANS.jsonl]
//       Times set-up and a window of served traffic; with --trace 1 also a
//       traced window and the layer-by-layer pass. Writes RESULT.json.
//
// perfbench/run.py builds this program, runs both steps and prints the
// result; see perfbench/README.md for the workloads and metrics.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common.h"
#include "core/canonical.h"
#include "io/binary_format.h"
#include "run.h"
#include "util/rng.h"

#ifndef PERFBENCH_CXX_ID
#define PERFBENCH_CXX_ID "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string command, workload, dir, out, spans;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v);
    else if (k == "--trace") a->trace = std::string(v) == "1";
    else if (k == "--dir") a->dir = v;
    else if (k == "--out") a->out = v;
    else if (k == "--spans") a->spans = v;
    else return false;
  }
  return !a->workload.empty() && !a->dir.empty() && a->seconds > 0;
}

uint32_t Workers() { return std::max(1u, std::thread::hardware_concurrency()); }

// One reported metric. Values are printed with all their digits.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char b[64];
  std::snprintf(b, sizeof(b), "%.12g", v);
  return b;
}

std::string JsonString(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o + "\"";
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string o = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) o += ", ";
    o += JsonString(metrics[i].name) + ": {\"value\": " +
         JsonNumber(metrics[i].value) +
         ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return o + "}";
}

// Effective parallelism of this box right now: nproc threads each burn
// the same fixed work; 4.0 on an idle 4-core machine, less when starved.
double EffectiveCores(uint32_t threads) {
  auto burn = [](uint64_t iters) {
    uint64_t x = 1;
    for (uint64_t i = 0; i < iters; ++i) x = x * 6364136223846793005ull + i;
    return x;
  };
  constexpr uint64_t kIters = 40'000'000;
  std::vector<double> ratios;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<uint64_t> sink(threads + 1);
    double t = Now();
    sink[threads] = burn(kIters);
    const double one = Now() - t;
    t = Now();
    std::vector<std::thread> pool;
    for (uint32_t k = 0; k < threads; ++k) {
      pool.emplace_back([&, k] { sink[k] = burn(kIters); });
    }
    for (std::thread& th : pool) th.join();
    const double all = Now() - t;
    ratios.push_back(threads * one / all);
    if (sink[0] == 42) std::fprintf(stderr, " ");  // keeps the burn alive
  }
  return Percentile(ratios, 0.5);
}

double PeakRssMb() {
  struct rusage u;
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool Answered(const Request& r) {
  return r.answered && r.transport_ok &&
         r.status == hgmatch::QueryStatus::kOk;
}

// End-to-end figures of one window. Latency percentiles pool every ok
// answer of the window; closed-loop qps counts the answers received inside
// it.
struct WindowFigures {
  size_t sent = 0;
  size_t failed = 0;      // non-ok, transport failure or wrong count
  size_t mismatched = 0;  // answered ok with a wrong count
  double window_s = 0;
  double qps = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double embeddings_per_s = 0;
  double ontime_frac = 0;
  double cpu_ms_per_query = 0;     // process CPU over the window per ok answer
  std::vector<double> latency_ms;  // ok answers, from the due time
};

WindowFigures Figures(const WorkloadSpec& spec, const Stream& stream,
                      const WindowResult& w) {
  WindowFigures f;
  f.sent = w.reqs.size();
  f.window_s = w.t_end - w.t0;
  size_t ok_in_window = 0;
  size_t ontime = 0;
  double embeddings = 0;
  for (const Request& r : w.reqs) {
    const RefCounts& ref = stream.refs[r.query];
    if (!Answered(r) || r.embeddings != ref.embeddings) {
      ++f.failed;
      if (Answered(r)) ++f.mismatched;
      continue;
    }
    const double ms = (r.recv - r.due) * 1e3;
    f.latency_ms.push_back(ms);
    if (ms <= spec.latency_limit_ms) ++ontime;
    if (spec.open_loop || r.recv <= w.t_end) {
      ++ok_in_window;
      embeddings += static_cast<double>(r.embeddings);
    }
  }
  f.p50_ms = Percentile(f.latency_ms, 0.5);
  f.p90_ms = Percentile(f.latency_ms, 0.9);
  if (spec.open_loop) {
    // Every request is due inside the window; throughput runs from its
    // start to the last answer, so a growing backlog lowers it.
    double last = w.t0;
    for (const Request& r : w.reqs) last = std::max(last, r.recv);
    f.window_s = last - w.t0;
  }
  f.qps = ok_in_window / f.window_s;
  f.embeddings_per_s = embeddings / f.window_s;
  f.ontime_frac = f.sent ? static_cast<double>(ontime) / f.sent : 0;
  const size_t ok = std::max<size_t>(f.latency_ms.size(), 1);
  f.cpu_ms_per_query = w.cpu_s * 1e3 / static_cast<double>(ok);
  return f;
}

// Share of submissions whose key appeared earlier in the sent stream, and
// the split of mirrored answers by whether an earlier copy of the same
// canonical key had already been answered when this one was sent.
struct RepeatFigures {
  double exact_frac = 0;
  double canonical_frac = 0;
  double class_frac = 0;  // same isomorphism class, known by construction
  double mirror_running_frac = 0;
  double mirror_done_frac = 0;
};

RepeatFigures Repeats(const Stream& stream, const WindowResult& w,
                      uint32_t threads) {
  const size_t n = w.reqs.size();
  const size_t queries = std::min(n, stream.subs.size());  // keys per query
  std::vector<std::string> exact(queries), canon(queries);
  ParallelFor(queries, threads, [&](size_t q) {
    hgmatch::CanonicalKey k = hgmatch::CanonicalQueryKey(stream.subs[q]);
    exact[q] = std::move(k.exact);
    canon[q] = std::move(k.key);
  });
  RepeatFigures f;
  std::unordered_set<std::string> seen_exact;
  std::unordered_set<uint32_t> seen_base;
  std::unordered_map<std::string, double> first_answer;  // canon -> min recv
  size_t exact_repeats = 0, canon_repeats = 0, class_repeats = 0, running = 0,
         done = 0;
  for (const Request& r : w.reqs) {
    if (!seen_exact.insert(exact[r.query]).second) ++exact_repeats;
    if (!seen_base.insert(stream.base[r.query]).second) ++class_repeats;
    auto it = first_answer.find(canon[r.query]);
    if (it != first_answer.end()) {
      ++canon_repeats;
      if (r.mirrored) (it->second <= r.send ? done : running)++;
    }
    const double recv = r.answered ? r.recv : INFINITY;
    if (it == first_answer.end()) first_answer.emplace(canon[r.query], recv);
    else it->second = std::min(it->second, recv);
  }
  if (n > 0) {
    f.exact_frac = static_cast<double>(exact_repeats) / n;
    f.canonical_frac = static_cast<double>(canon_repeats) / n;
    f.class_frac = static_cast<double>(class_repeats) / n;
  }
  if (running + done > 0) {
    f.mirror_running_frac = static_cast<double>(running) / (running + done);
    f.mirror_done_frac = static_cast<double>(done) / (running + done);
  }
  return f;
}

// Per-stage server times of a traced window (executed answers only:
// a mirrored answer carries its canonical's stamps) and each layer's self
// time around the median latency.
struct SpanFigures {
  std::vector<double> ingress, admit_wait, dispatch, exec, resolve, deliver,
      egress;
  double self_gen_ms = 0, self_net_ms = 0, self_service_ms = 0,
         self_sched_ms = 0, self_core_ms = 0, accounted_frac = 0,
         band_latency_ms = 0;
};

SpanFigures Spans(const Stream& stream, const WindowResult& w,
                  const std::vector<LayerSample>& layers, SpanLog* log) {
  // Planning and canonical labelling run inside the service before the
  // scheduler's submit stamp; the layer pass measured them per query.
  std::unordered_map<uint32_t, double> plan_canon;
  std::vector<double> pc;
  for (const LayerSample& s : layers) {
    plan_canon[s.base] = s.plan_s + s.canon_s;
    pc.push_back(s.plan_s + s.canon_s);
  }
  const double pc_median = Percentile(pc, 0.5);

  SpanFigures f;
  struct Split {
    double latency, gen, net, service, sched, core;
  };
  std::vector<Split> splits;
  for (size_t i = 0; i < w.reqs.size(); ++i) {
    const Request& r = w.reqs[i];
    const hgmatch::QuerySpan& s = r.span;
    if (!Answered(r) || !s.enabled || s.resolve_seconds <= 0 ||
        s.deliver_seconds <= 0) {
      continue;
    }
    const uint64_t root = log->Add("client.request", r.due, r.recv, 0, i);
    log->Add("gen.lag", r.due, r.send, root, i);
    Split x{r.recv - r.due, r.send - r.due, 0, 0, 0, 0};
    x.net = (s.deliver_seconds - s.resolve_seconds) +
            (r.recv - s.deliver_seconds);
    log->Add("net.deliver", s.resolve_seconds, s.deliver_seconds, root, i);
    log->Add("net.egress", s.deliver_seconds, r.recv, root, i);
    const bool executed = !r.mirrored && s.submit_seconds > 0 &&
                          s.admit_seconds > 0 && s.first_task_seconds > 0 &&
                          s.last_task_seconds > 0;
    if (executed) {
      f.ingress.push_back(s.submit_seconds - r.send);
      f.admit_wait.push_back(s.admit_seconds - s.submit_seconds);
      f.dispatch.push_back(s.first_task_seconds - s.admit_seconds);
      f.exec.push_back(s.last_task_seconds - s.first_task_seconds);
      f.resolve.push_back(s.resolve_seconds - s.last_task_seconds);
      f.deliver.push_back(s.deliver_seconds - s.resolve_seconds);
      f.egress.push_back(r.recv - s.deliver_seconds);
      const auto it = plan_canon.find(stream.base[r.query]);
      const double ingress = s.submit_seconds - r.send;
      const double planning = std::min(
          ingress, it != plan_canon.end() ? it->second : pc_median);
      x.net += ingress - planning;
      x.service = planning + (s.resolve_seconds - s.last_task_seconds);
      x.sched = s.first_task_seconds - s.submit_seconds;
      x.core = s.last_task_seconds - s.first_task_seconds;
      log->Add("net.ingress", r.send, s.submit_seconds, root, i);
      log->Add("sched.admit_wait", s.submit_seconds, s.admit_seconds, root, i);
      log->Add("sched.dispatch", s.admit_seconds, s.first_task_seconds, root,
               i);
      log->Add("core.exec", s.first_task_seconds, s.last_task_seconds, root,
               i);
      log->Add("service.resolve", s.last_task_seconds, s.resolve_seconds,
               root, i);
    } else {
      // A mirror never reaches the scheduler: from send to its own
      // resolution it is the service's (ingress included).
      x.service = s.resolve_seconds - r.send;
      log->Add("service.mirror", r.send, s.resolve_seconds, root, i);
    }
    splits.push_back(x);
  }
  if (splits.empty()) return f;
  std::sort(splits.begin(), splits.end(),
            [](const Split& a, const Split& b) { return a.latency < b.latency; });
  const size_t lo = splits.size() * 45 / 100;
  const size_t hi = std::max(lo + 1, splits.size() * 55 / 100);
  Split mean{0, 0, 0, 0, 0, 0};
  for (size_t k = lo; k < hi; ++k) {
    mean.latency += splits[k].latency;
    mean.gen += splits[k].gen;
    mean.net += splits[k].net;
    mean.service += splits[k].service;
    mean.sched += splits[k].sched;
    mean.core += splits[k].core;
  }
  const double n = static_cast<double>(hi - lo);
  f.band_latency_ms = mean.latency / n * 1e3;
  f.self_gen_ms = mean.gen / n * 1e3;
  f.self_net_ms = mean.net / n * 1e3;
  f.self_service_ms = mean.service / n * 1e3;
  f.self_sched_ms = mean.sched / n * 1e3;
  f.self_core_ms = mean.core / n * 1e3;
  f.accounted_frac =
      (mean.gen + mean.net + mean.service + mean.sched + mean.core) /
      mean.latency;
  return f;
}

// Exact counts of the layer set (the first `count` distinct queries),
// straight from the reference run, plus a digest of the whole stream.
struct Fingerprint {
  uint64_t digest = 0;
  RefCounts layer_sum;
};

Fingerprint MakeFingerprint(const Stream& stream, size_t count) {
  Fingerprint fp;
  uint64_t h = stream.subs.size();
  std::unordered_set<uint32_t> seen;
  for (size_t i = 0; i < stream.subs.size(); ++i) {
    const RefCounts& r = stream.refs[i];
    h = hgmatch::Mix64(h ^ r.embeddings) + r.candidates;
    h = hgmatch::Mix64(h ^ r.expansions) + stream.subs[i].NumIncidences();
    if (seen.size() < count && seen.insert(stream.base[i]).second) {
      fp.layer_sum.embeddings += r.embeddings;
      fp.layer_sum.candidates += r.candidates;
      fp.layer_sum.filtered += r.filtered;
      fp.layer_sum.expansions += r.expansions;
    }
  }
  fp.digest = h;
  return fp;
}

int Gen(const Args& a, const WorkloadSpec& spec) {
  const double t = Now();
  Hypergraph graph = GenerateGraph(spec);
  Status st = hgmatch::SaveHypergraphBinary(graph, a.dir + "/graph.hgb");
  if (!st.ok()) {
    std::fprintf(stderr, "gen: %s\n", st.ToString().c_str());
    return 1;
  }
  const IndexedHypergraph index = IndexedHypergraph::Build(std::move(graph));
  Result<Stream> stream =
      GenerateStream(spec, index, a.seed, a.seconds, Workers());
  if (!stream.ok()) {
    std::fprintf(stderr, "gen: %s\n", stream.status().ToString().c_str());
    return 1;
  }
  st = SaveStream(stream.value(), a.dir + "/stream.bin");
  if (!st.ok()) {
    std::fprintf(stderr, "gen: %s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "gen %s seed %llu: |V|=%zu |E|=%zu, %zu submissions over %zu "
               "distinct queries, %.2fs\n",
               spec.name, static_cast<unsigned long long>(a.seed),
               index.graph().NumVertices(), index.graph().NumEdges(),
               stream.value().subs.size(),
               std::unordered_set<uint32_t>(stream.value().base.begin(),
                                            stream.value().base.end())
                   .size(),
               Now() - t);
  return 0;
}

int Fail(const char* what, const Status& st) {
  std::fprintf(stderr, "run: %s: %s\n", what, st.ToString().c_str());
  return 1;
}

int Run(const Args& a, const WorkloadSpec& spec) {
  Result<Stream> loaded = LoadStream(a.dir + "/stream.bin");
  if (!loaded.ok()) return Fail("stream", loaded.status());
  const Stream& stream = loaded.value();
  const uint32_t workers = Workers();
  const double effective_cores = EffectiveCores(workers);

  // Set-up, at least 5 times and until 1.5 s is spent (at most 50); the
  // last instance serves the window.
  std::vector<double> setup, load, build;
  Served served;
  for (int rep = 0;; ++rep) {
    TearDown(&served);  // the previous instance goes untimed
    Result<Served> s = Setup(a.dir + "/graph.hgb", workers);
    if (!s.ok()) return Fail("setup", s.status());
    served = std::move(s).value();
    setup.push_back(served.load_s + served.build_s + served.start_s);
    load.push_back(served.load_s);
    build.push_back(served.build_s);
    if ((rep >= 4 && Sum(setup) >= 1.5) || rep >= 49) break;
  }

  Result<WindowResult> window =
      RunWindow(spec, served, stream, a.seconds, /*trace=*/false);
  if (!window.ok()) return Fail("window", window.status());
  const WindowResult& w = window.value();
  const WindowFigures fig = Figures(spec, stream, w);
  Result<BytesPass> bytes = MeasureBytes(served, stream, a.trace, 32);
  if (!bytes.ok()) return Fail("bytes pass", bytes.status());
  const RepeatFigures rep = Repeats(stream, w, workers);
  const Fingerprint fp = MakeFingerprint(stream, spec.layer_queries);
  const uint64_t index_bytes = served.index->IndexBytes();

  std::vector<Metric> metrics;  // the mode's reported set
  std::vector<Metric> report;   // everything else, for the log
  std::vector<double> lag_ms;
  for (const Request& r : w.reqs) lag_ms.push_back((r.send - r.due) * 1e3);
  const double lag_p99 = Percentile(lag_ms, 0.99);
  uint32_t mismatches = static_cast<uint32_t>(fig.mismatched);
  uint32_t extra_failures = w.warmup_failures + bytes.value().failures;

  if (!a.trace) {
    metrics = {
        {"setup_s", Percentile(setup, 0.5), "s"},
        {"cpu_ms_per_query", fig.cpu_ms_per_query, "ms"},
        {"ontime_frac", fig.ontime_frac, "fraction"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    // Logged, not gated. Wall-clock throughput and latency follow how much
    // CPU other tenants of a shared box leave this process, which swings
    // them by a quarter from one minute to the next; embeddings_per_s also
    // follows one query's output size (1 to 10^5 embeddings per query).
    report = {
        {"qps", fig.qps, "1/s"},
        {"latency_p50_ms", fig.p50_ms, "ms"},
        {"latency_p90_ms", fig.p90_ms, "ms"},
        {"embeddings_per_s", fig.embeddings_per_s, "1/s"},
        {"fail_frac", fig.sent ? static_cast<double>(fig.failed) / fig.sent : 0,
         "fraction"},
        {"samples", static_cast<double>(fig.latency_ms.size()), "count"},
        {"window_s", fig.window_s, "s"},
        {"stream_passes",
         static_cast<double>(fig.sent) / stream.subs.size(), "count"},
        {"latency_limit_ms", spec.latency_limit_ms, "ms"},
        {"repeat.exact_frac", rep.exact_frac, "fraction"},
        {"repeat.canonical_frac", rep.canonical_frac, "fraction"},
        {"repeat.class_frac", rep.class_frac, "fraction"},
        {"gen.lag_ms_p99", lag_p99, "ms"},
        {"net.connect_ms", w.connect_ms, "ms"},
    };
    if (fig.latency_ms.size() >= 1000) {
      report.push_back(
          {"latency_p99_ms", Percentile(fig.latency_ms, 0.99), "ms"});
    }
  } else {
    // Traced window on a fresh server, so its plan cache starts cold too.
    TearDown(&served);
    Result<Served> s = Setup(a.dir + "/graph.hgb", workers);
    if (!s.ok()) return Fail("setup", s.status());
    served = std::move(s).value();
    Result<WindowResult> traced =
        RunWindow(spec, served, stream, a.seconds, /*trace=*/true);
    if (!traced.ok()) return Fail("traced window", traced.status());
    const WindowFigures tfig = Figures(spec, stream, traced.value());
    mismatches += static_cast<uint32_t>(tfig.mismatched);
    extra_failures += static_cast<uint32_t>(tfig.failed) +
                      traced.value().warmup_failures;
    served.server->Stop();

    SpanLog log;
    Result<std::vector<LayerSample>> layers = RunLayers(
        *served.index, stream, spec.layer_queries, workers, &log, &mismatches);
    if (!layers.ok()) return Fail("layers", layers.status());
    const SpanFigures sp = Spans(stream, traced.value(), layers.value(), &log);
    if (!a.spans.empty()) {
      Status st = log.Write(a.spans);
      if (!st.ok()) return Fail("spans", st);
    }

    std::vector<double> plan, canon, seq, par, submit;
    hgmatch::MatchStats seq_sum;
    std::vector<double> worker_busy(workers, 0);
    uint64_t steals = 0, tasks = 0, peak_task_bytes = 0;
    for (const LayerSample& l : layers.value()) {
      plan.push_back(l.plan_s);
      canon.push_back(l.canon_s);
      seq.push_back(l.seq_s);
      par.push_back(l.par_s);
      submit.push_back(l.svc_submit_s);
      seq_sum += l.seq;
      for (size_t k = 0; k < l.par.workers.size() && k < workers; ++k) {
        worker_busy[k] += l.par.workers[k].busy_seconds;
        steals += l.par.workers[k].steals;
        tasks += l.par.workers[k].tasks_executed;
      }
      peak_task_bytes = std::max(peak_task_bytes, l.par.peak_task_bytes);
    }
    const double busy = Sum(worker_busy);
    const double busy_max =
        *std::max_element(worker_busy.begin(), worker_busy.end());
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
    const double untraced_p50 = fig.p50_ms;
    const double traced_p50 = tfig.p50_ms;
    const double overhead = spec.open_loop
                                ? ratio(traced_p50, untraced_p50) - 1
                                : 1 - ratio(tfig.qps, fig.qps);
    const WindowResult& tw = traced.value();
    std::vector<double> tlag_ms;
    for (const Request& r : tw.reqs) tlag_ms.push_back((r.send - r.due) * 1e3);
    metrics = {
        {"env.effective_cores", effective_cores, "count"},
        {"io.load_s", Percentile(load, 0.5), "s"},
        {"core.index_build_s", Percentile(build, 0.5), "s"},
        {"core.index_bytes", static_cast<double>(index_bytes), "B"},
        {"core.plan_us_p50", Percentile(plan, 0.5) * 1e6, "us"},
        {"core.canon_us_p50", Percentile(canon, 0.5) * 1e6, "us"},
        {"core.seq_ms_p50", Percentile(seq, 0.5) * 1e3, "ms"},
        {"core.seq_s_total", Sum(seq), "s"},
        {"core.ns_per_candidate",
         ratio(Sum(seq) * 1e9, static_cast<double>(seq_sum.candidates)), "ns"},
        {"core.candidates", static_cast<double>(seq_sum.candidates), "count"},
        {"core.filtered", static_cast<double>(seq_sum.filtered), "count"},
        {"core.embeddings", static_cast<double>(seq_sum.embeddings), "count"},
        {"core.expansions", static_cast<double>(seq_sum.expansions), "count"},
        {"core.filter_ratio",
         ratio(static_cast<double>(seq_sum.filtered), seq_sum.candidates),
         "fraction"},
        {"core.valid_ratio",
         ratio(static_cast<double>(seq_sum.embeddings), seq_sum.filtered),
         "fraction"},
        {"sched.par_ms_p50", Percentile(par, 0.5) * 1e3, "ms"},
        {"sched.speedup", ratio(Sum(seq), Sum(par)), "x"},
        {"sched.busy_frac", ratio(busy, workers * Sum(par)), "fraction"},
        {"sched.busy_imbalance", ratio(busy_max * workers, busy), "x"},
        {"sched.steals", static_cast<double>(steals), "count"},
        {"sched.tasks", static_cast<double>(tasks), "count"},
        {"sched.peak_task_kb", peak_task_bytes / 1024.0, "KiB"},
        {"sched.admit_wait_ms_p99", Percentile(sp.admit_wait, 0.99) * 1e3,
         "ms"},
        {"sched.dispatch_us_p50", Percentile(sp.dispatch, 0.5) * 1e6, "us"},
        {"sched.exec_ms_p50", Percentile(sp.exec, 0.5) * 1e3, "ms"},
        {"service.submit_us_p50", Percentile(submit, 0.5) * 1e6, "us"},
        {"service.resolve_us_p50", Percentile(sp.resolve, 0.5) * 1e6, "us"},
        {"service.plan_hits_exact", static_cast<double>(w.counters.hits_exact),
         "count"},
        {"service.plan_hits_iso", static_cast<double>(w.counters.hits_iso),
         "count"},
        {"service.plan_misses", static_cast<double>(w.counters.misses),
         "count"},
        {"service.mirrored", static_cast<double>(w.counters.mirrored),
         "count"},
        {"service.redispatched", static_cast<double>(w.counters.redispatched),
         "count"},
        {"service.rejected", static_cast<double>(w.counters.rejected),
         "count"},
        {"service.mirror_running_frac", rep.mirror_running_frac, "fraction"},
        {"service.mirror_done_frac", rep.mirror_done_frac, "fraction"},
        {"net.bytes_per_query", bytes.value().bytes_per_query, "B"},
        {"net.frames_per_query", bytes.value().frames_per_query, "count"},
        {"net.ingress_us_p50", Percentile(sp.ingress, 0.5) * 1e6, "us"},
        {"net.deliver_us_p50", Percentile(sp.deliver, 0.5) * 1e6, "us"},
        {"net.egress_us_p50", Percentile(sp.egress, 0.5) * 1e6, "us"},
        {"net.connect_ms", w.connect_ms, "ms"},
        {"gen.lag_ms_p99", Percentile(tlag_ms, 0.99), "ms"},
        {"repeat.exact_frac", rep.exact_frac, "fraction"},
        {"repeat.canonical_frac", rep.canonical_frac, "fraction"},
        {"repeat.class_frac", rep.class_frac, "fraction"},
        {"self.gen_ms", sp.self_gen_ms, "ms"},
        {"self.net_ms", sp.self_net_ms, "ms"},
        {"self.service_ms", sp.self_service_ms, "ms"},
        {"self.sched_ms", sp.self_sched_ms, "ms"},
        {"self.core_ms", sp.self_core_ms, "ms"},
        {"trace.accounted_frac", sp.accounted_frac, "fraction"},
        {"trace.overhead_frac", overhead, "fraction"},
    };
    report = {
        {"traced.latency_p50_ms", traced_p50, "ms"},
        {"traced.qps", tfig.qps, "1/s"},
        {"traced.band_latency_ms", sp.band_latency_ms, "ms"},
        {"untraced.latency_p50_ms", untraced_p50, "ms"},
        {"untraced.qps", fig.qps, "1/s"},
        {"layer_queries", static_cast<double>(layers.value().size()), "count"},
    };
  }
  report.push_back({"net.window_frames_per_query",
                    fig.sent ? static_cast<double>(w.transfer.frames_sent +
                                                   w.transfer.frames_received) /
                                   fig.sent
                             : 0,
                    "count"});

  const size_t failed = fig.failed + extra_failures;
  std::string env = "{\"compiler\": " + JsonString(PERFBENCH_CXX_ID) +
                    ", \"flags\": " + JsonString(PERFBENCH_CXX_FLAGS) +
                    ", \"nproc\": " + std::to_string(workers) +
                    ", \"effective_cores\": " + JsonNumber(effective_cores) +
                    "}";
  char fingerprint[512];
  std::snprintf(
      fingerprint, sizeof(fingerprint),
      "{\"stream_digest\": \"%016llx\", \"core.candidates\": %llu, "
      "\"core.filtered\": %llu, \"core.embeddings\": %llu, "
      "\"core.expansions\": %llu, \"net.bytes_per_query\": %s, "
      "\"net.frames_per_query\": %s}",
      static_cast<unsigned long long>(fp.digest),
      static_cast<unsigned long long>(fp.layer_sum.candidates),
      static_cast<unsigned long long>(fp.layer_sum.filtered),
      static_cast<unsigned long long>(fp.layer_sum.embeddings),
      static_cast<unsigned long long>(fp.layer_sum.expansions),
      JsonNumber(bytes.value().bytes_per_query).c_str(),
      JsonNumber(bytes.value().frames_per_query).c_str());
  std::ofstream out(a.out);
  out << "{\"correct\": " << (mismatches == 0 ? "true" : "false")
      << ", \"attempted\": " << std::max<size_t>(fig.sent, 1)
      << ", \"failed\": " << failed << ", \"metrics\": " << JsonMetrics(metrics)
      << ", \"report\": " << JsonMetrics(report) << ", \"env\": " << env
      << ", \"fingerprint\": " << fingerprint << "}\n";
  if (!out) return Fail("result", Status::IOError("cannot write " + a.out));
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hgbench gen|run --workload W --seed S --seconds T "
                 "--dir D [--trace 0|1 --out FILE --spans FILE]\n");
    return 2;
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (args.command == "gen") return perfbench::Gen(args, *spec);
  if (args.command == "run" && !args.out.empty()) {
    return perfbench::Run(args, *spec);
  }
  return 2;
}
