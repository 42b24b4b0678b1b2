// Server set-up and the load generator: one thread drives every client
// connection; each AsyncMatchClient adds its own reader thread.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <ctime>
#include <deque>
#include <mutex>
#include <thread>

#include "io/binary_format.h"
#include "obs/metrics.h"
#include "run.h"

namespace perfbench {
namespace {

using hgmatch::AsyncMatchClient;
using hgmatch::AsyncOutcome;
using hgmatch::QueryStatus;

// The catalog name of MatchServer's single graph; every submission is
// routed by name, so catalog routing is on the measured path.
constexpr const char* kGraph = "default";
constexpr double kDrainSeconds = 120;

// CPU time used so far by every thread of this process, client and server
// alike.
double ProcessCpuSeconds() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

uint32_t Features(bool trace) {
  return hgmatch::kFeatureBatch | hgmatch::kFeatureCatalog |
         (trace ? hgmatch::kFeatureTrace : 0u);
}

Result<std::unique_ptr<AsyncMatchClient>> Connect(const Served& served,
                                                  uint32_t max_inflight,
                                                  bool trace) {
  hgmatch::AsyncClientOptions options;
  options.max_inflight = max_inflight;
  options.request_features = Features(trace);
  auto client = std::make_unique<AsyncMatchClient>(options);
  Status st = client->Connect("127.0.0.1", served.server->port());
  if (!st.ok()) return st;
  if ((client->features() & Features(trace)) != Features(trace)) {
    return Status::Internal("HELLO did not grant the requested features");
  }
  return client;
}

ServiceCounters ReadCounters() {
  hgmatch::MetricsRegistry& reg = hgmatch::MetricsRegistry::Default();
  ServiceCounters c;
  c.hits_exact =
      reg.GetCounter("hgmatch_plan_cache_hits_total", "kind=\"exact\"")->Value();
  c.hits_iso = reg.GetCounter("hgmatch_plan_cache_hits_total",
                              "kind=\"isomorphic\"")
                   ->Value();
  c.misses = reg.GetCounter("hgmatch_plan_cache_misses_total")->Value();
  c.mirrored = reg.GetCounter("hgmatch_queries_mirrored_total")->Value();
  c.redispatched =
      reg.GetCounter("hgmatch_queries_redispatched_total")->Value();
  c.rejected =
      reg.GetCounter("hgmatch_rejected_total", "reason=\"queue-full\"")
          ->Value();
  return c;
}

ServiceCounters Delta(const ServiceCounters& a, const ServiceCounters& b) {
  return {b.hits_exact - a.hits_exact,   b.hits_iso - a.hits_iso,
          b.misses - a.misses,           b.mirrored - a.mirrored,
          b.redispatched - a.redispatched, b.rejected - a.rejected};
}

hgmatch::ClientTransferStats Transfer(
    const std::vector<std::unique_ptr<AsyncMatchClient>>& clients) {
  hgmatch::ClientTransferStats sum;
  for (const auto& c : clients) {
    const hgmatch::ClientTransferStats s = c->TransferStats();
    sum.frames_sent += s.frames_sent;
    sum.bytes_sent += s.bytes_sent;
    sum.frames_received += s.frames_received;
    sum.bytes_received += s.bytes_received;
  }
  return sum;
}

// Outstanding requests per connection, shared by the load generator and
// the clients' reader threads.
struct Outstanding {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<uint32_t> per_conn;  // guarded by mu
  size_t answered = 0;             // guarded by mu
};

// Sends one request; its callback fills *r and releases the slot. False
// when the client refused it (the request then stays unanswered). Pass k
// over a closed-loop stream carries its own embedding limit, far above
// any count: the service still reuses the compiled plan, but a repeat
// under different budgets executes instead of mirroring an earlier answer.
bool Send(AsyncMatchClient& client, uint32_t conn, const Hypergraph& q,
          uint32_t pass, bool trace, Request* r, Outstanding* out) {
  hgmatch::SubmitOptions options;
  options.trace = trace;
  options.limit = (uint64_t{1} << 62) + pass;
  Result<uint64_t> id = client.Submit(
      kGraph, q, options, [r, conn, out](const AsyncOutcome& o) {
        r->recv = Now();
        r->transport_ok = o.transport.ok();
        if (r->transport_ok) {
          r->status = o.wire.outcome.status;
          r->embeddings = o.wire.outcome.stats.embeddings;
          r->mirrored = o.wire.outcome.mirrored;
          r->span = o.wire.outcome.span;
        }
        std::lock_guard<std::mutex> lock(out->mu);
        r->answered = true;
        --out->per_conn[conn];
        ++out->answered;
        out->cv.notify_all();
      });
  if (id.ok()) return true;
  std::lock_guard<std::mutex> lock(out->mu);
  --out->per_conn[conn];
  ++out->answered;
  return false;
}

// Blocks until `target` requests have been answered or refused.
bool WaitAnswered(Outstanding* out, size_t target, double seconds) {
  std::unique_lock<std::mutex> lock(out->mu);
  return out->cv.wait_for(lock, std::chrono::duration<double>(seconds),
                          [&] { return out->answered >= target; });
}

bool Correct(const Request& r, const RefCounts& ref) {
  return r.answered && r.transport_ok && r.status == QueryStatus::kOk &&
         r.embeddings == ref.embeddings;
}

}  // namespace

Result<Served> Setup(const std::string& graph_path, uint32_t workers) {
  Served s;
  double t = Now();
  Result<Hypergraph> graph = hgmatch::LoadHypergraphBinary(graph_path);
  if (!graph.ok()) return graph.status();
  s.load_s = Now() - t;
  t = Now();
  s.index = std::make_unique<IndexedHypergraph>(
      IndexedHypergraph::Build(std::move(graph).value()));
  s.build_s = Now() - t;
  t = Now();
  hgmatch::ServerOptions options;
  options.service.parallel.num_threads = workers;
  options.io_threads = 1;
  s.server = std::make_unique<hgmatch::MatchServer>(*s.index, options);
  Status st = s.server->Start();
  if (!st.ok()) return st;
  s.start_s = Now() - t;
  return s;
}

Result<WindowResult> RunWindow(const WorkloadSpec& spec, Served& served,
                               const Stream& stream, double seconds,
                               bool trace) {
  WindowResult res;
  Outstanding out;
  out.per_conn.assign(spec.connections, 0);
  std::vector<std::unique_ptr<AsyncMatchClient>> clients;
  const double c0 = Now();
  for (uint32_t c = 0; c < spec.connections; ++c) {
    auto client = Connect(served, spec.open_loop ? 0 : spec.window, trace);
    if (!client.ok()) return client.status();
    clients.push_back(std::move(client).value());
  }
  res.connect_ms = (Now() - c0) * 1e3 / spec.connections;
  auto close_all = [&] {
    for (auto& c : clients) c->Close();
  };

  // Warm-up: one at a time on the first connection, checked, untimed.
  std::vector<Request> warm(stream.warmup.size());
  for (size_t i = 0; i < warm.size(); ++i) {
    {
      std::lock_guard<std::mutex> lock(out.mu);
      ++out.per_conn[0];
    }
    Send(*clients[0], 0, stream.warmup[i], 0, trace, &warm[i], &out);
    if (!WaitAnswered(&out, i + 1, kDrainSeconds)) break;
  }
  close_all();  // no-op for answered requests; resolves a stuck warm-up
  clients.clear();
  for (size_t i = 0; i < warm.size(); ++i) {
    if (!Correct(warm[i], stream.warmup_refs[i])) {
      ++res.warmup_failures;
    }
  }
  // Fresh connections for the window, opened before it starts, so connect
  // and HELLO never fall inside it.
  out.answered = 0;
  out.per_conn.assign(spec.connections, 0);
  for (uint32_t c = 0; c < spec.connections; ++c) {
    auto client = Connect(served, spec.open_loop ? 0 : spec.window, trace);
    if (!client.ok()) return client.status();
    clients.push_back(std::move(client).value());
  }

  const ServiceCounters before = ReadCounters();
  const double cpu0 = ProcessCpuSeconds();
  const hgmatch::ClientTransferStats transfer_before = Transfer(clients);
  const size_t n = stream.subs.size();
  size_t sent = 0;
  auto send_next = [&](uint32_t conn, double due) {
    Request& r = res.reqs.emplace_back();  // deque: r stays put
    r.query = static_cast<uint32_t>(sent % n);
    r.due = due;
    r.send = Now();
    Send(*clients[conn], conn, stream.subs[r.query],
         static_cast<uint32_t>(sent / n), trace, &r, &out);
    ++sent;
  };
  if (!spec.open_loop) {
    res.t0 = Now();
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::duration<double>(seconds));
    for (;;) {
      uint32_t conn = 0;
      {
        std::unique_lock<std::mutex> lock(out.mu);
        auto room = [&] {
          return *std::min_element(out.per_conn.begin(), out.per_conn.end()) <
                 spec.window;
        };
        if (!out.cv.wait_until(lock, deadline, room)) break;
        if (std::chrono::steady_clock::now() >= deadline) break;
        conn = static_cast<uint32_t>(
            std::min_element(out.per_conn.begin(), out.per_conn.end()) -
            out.per_conn.begin());
        ++out.per_conn[conn];
      }
      send_next(conn, Now());
    }
  } else {
    res.t0 = Now() + 0.01;
    while (sent < n) {
      const double due = res.t0 + static_cast<double>(sent) / spec.rate_qps;
      for (double wait = due - Now(); wait > 0; wait = due - Now()) {
        if (wait > 5e-4) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait - 3e-4));
        }
      }
      const uint32_t conn = static_cast<uint32_t>(sent % spec.connections);
      {
        std::lock_guard<std::mutex> lock(out.mu);
        ++out.per_conn[conn];
      }
      send_next(conn, due);
    }
  }
  res.t_end = res.t0 + seconds;
  WaitAnswered(&out, sent, kDrainSeconds);
  res.cpu_s = ProcessCpuSeconds() - cpu0;
  res.transfer = Transfer(clients);
  res.transfer.frames_sent -= transfer_before.frames_sent;
  res.transfer.bytes_sent -= transfer_before.bytes_sent;
  res.transfer.frames_received -= transfer_before.frames_received;
  res.transfer.bytes_received -= transfer_before.bytes_received;
  res.counters = Delta(before, ReadCounters());
  close_all();  // resolves anything still unanswered as a transport failure
  return res;
}

Result<BytesPass> MeasureBytes(Served& served, const Stream& stream,
                               bool trace, size_t count) {
  count = std::min(count, stream.subs.size());
  auto client = Connect(served, 1, trace);
  if (!client.ok()) return client.status();
  Outstanding out;
  out.per_conn.assign(1, 0);
  std::vector<Request> reqs(count);
  const hgmatch::ClientTransferStats a = client.value()->TransferStats();
  for (size_t i = 0; i < count; ++i) {
    {
      std::lock_guard<std::mutex> lock(out.mu);
      ++out.per_conn[0];
    }
    Send(*client.value(), 0, stream.subs[i], 0, trace, &reqs[i], &out);
    if (!WaitAnswered(&out, i + 1, kDrainSeconds)) break;
  }
  const hgmatch::ClientTransferStats b = client.value()->TransferStats();
  client.value()->Close();
  BytesPass pass;
  for (size_t i = 0; i < count; ++i) {
    if (!Correct(reqs[i], stream.refs[i])) ++pass.failures;
  }
  const double n = static_cast<double>(std::max<size_t>(count, 1));
  pass.bytes_per_query =
      static_cast<double>(b.bytes_sent - a.bytes_sent + b.bytes_received -
                          a.bytes_received) /
      n;
  pass.frames_per_query =
      static_cast<double>(b.frames_sent - a.frames_sent + b.frames_received -
                          a.frames_received) /
      n;
  return pass;
}

}  // namespace perfbench
