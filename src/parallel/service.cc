#include "parallel/service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/canonical.h"
#include "core/matching_order.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace hgmatch {

namespace {

constexpr uint32_t kNotScheduled = 0xffffffffu;

// Service-layer registry handles, resolved once per process (every
// MatchService instance shares them — the metrics describe the process,
// not one service).
struct ServiceMetrics {
  Counter* plan_cache_hits_exact;
  Counter* plan_cache_hits_isomorphic;
  Counter* plan_cache_misses;
  Counter* plan_cache_evictions;
  Counter* mirrored;
};

const ServiceMetrics& Metrics() {
  static const ServiceMetrics m = [] {
    MetricsRegistry& reg = MetricsRegistry::Default();
    return ServiceMetrics{
        reg.GetCounter("hgmatch_plan_cache_hits_total", "kind=\"exact\""),
        reg.GetCounter("hgmatch_plan_cache_hits_total", "kind=\"isomorphic\""),
        reg.GetCounter("hgmatch_plan_cache_misses_total"),
        reg.GetCounter("hgmatch_plan_cache_evictions_total"),
        reg.GetCounter("hgmatch_queries_mirrored_total"),
    };
  }();
  return m;
}

// Serialises Emit across the sub-queries of one sharded fan: the
// scheduler serialises Emit per query, and each fan sub-query is its own
// scheduler query, so concurrent slices would otherwise race on the
// user's sink.
class LockedSink : public EmbeddingSink {
 public:
  explicit LockedSink(EmbeddingSink* wrapped) : wrapped_(wrapped) {}

  void Emit(const EdgeId* edges, uint32_t size) override {
    std::lock_guard<std::mutex> lock(mutex_);
    wrapped_->Emit(edges, size);
  }

 private:
  EmbeddingSink* wrapped_;
  std::mutex mutex_;
};

// Merge dominance of terminal statuses: when the slices of one sharded
// query end differently, the parent reports the most user-actionable
// cause (the same order QueryStatus documents).
int StatusSeverity(QueryStatus s) {
  switch (s) {
    case QueryStatus::kOk: return 0;
    case QueryStatus::kLimit: return 1;
    case QueryStatus::kTimeout: return 2;
    case QueryStatus::kCancelled: return 3;
    case QueryStatus::kPlanError: return 5;
    case QueryStatus::kRejected: return 4;
  }
  return 0;
}

// Folds one slice outcome into the fan's merged parent outcome: counts
// sum (the slices partition the embedding set), wall-clock fields span
// the whole fan (earliest admission to last finish), and the most severe
// status wins. `any` is false for the first slice.
void MergeShardOutcome(QueryOutcome* into, const QueryOutcome& out,
                       bool any) {
  if (!any) {
    *into = out;
    return;
  }
  if (StatusSeverity(out.status) > StatusSeverity(into->status)) {
    into->status = out.status;
  }
  into->stats += out.stats;
  into->stats.seconds = std::max(into->stats.seconds, out.stats.seconds);
  into->admit_seconds = std::min(into->admit_seconds, out.admit_seconds);
  into->finish_seconds = std::max(into->finish_seconds, out.finish_seconds);
  into->admit_index = std::min(into->admit_index, out.admit_index);
  // Span scalars span the whole fan (earliest submit/admit/first task,
  // latest last task); per-slice rows are appended by the caller, which
  // knows the slice index.
  into->span.MergeFrom(out.span);
}

// Whether a finished run is a trustworthy source of mirrored counts: a
// complete run (kOk) or a limit stop at the same limit budget. Anything
// else (timeout, cancelled, rejected) carries partial or no counts that
// belong only to the run that was interrupted.
bool Mirrorable(QueryStatus s) {
  return s == QueryStatus::kOk || s == QueryStatus::kLimit;
}

}  // namespace

namespace internal {

// Fan-out bookkeeping of one sharded submission (ServiceOptions::shards
// > 1): the record's execution is K scheduler sub-queries, one per scan
// slice, and the parent resolves when the last of them does. Every field
// is guarded by ServiceImpl::resolve_mutex_ (sub-query completion hooks,
// attachment of scheduler indices and parent resolution all serialise
// there), except `locked_sink`, which is written once before the first
// sub-query is submitted.
struct ShardFan {
  uint32_t remaining = 0;      // sub-queries not yet finished
  bool any = false;            // `merged` holds at least one slice
  bool cancel_issued = false;  // a rejected slice cancelled its siblings
  QueryOutcome merged;         // running merge of finished slices
  // Scheduler indices of the sub-queries; kNotScheduled until Submit
  // returns each (a slice resolving synchronously inside Submit can beat
  // its own attachment).
  std::vector<uint32_t> sub;
  // Serialising wrapper around the user's sink, when one is set.
  std::unique_ptr<LockedSink> locked_sink;
};

// The mutex + condition variable every ticket wait and record resolution
// parks on. Shared-owned: the service holds one reference and every
// QueryRecord pins another, so a Ticket::Wait that is still inside the
// condition wait when its service is destroyed (a catalog unload drains on
// the completion hook, which fires before woken waiters have re-acquired
// the mutex) parks on storage that outlives the service.
struct ResolveGate {
  std::mutex m;
  std::condition_variable cv;
};

// What one plan-cache entry shares with the records running its plan.
// The entry and each in-flight record of the plan hold a reference, so a
// record writes back at resolution without touching the cache itself.
struct PlanShare {
  // Latest measured task count of a complete run of the plan (0 = not yet
  // measured); the weighted-fair admission charge of later runs.
  std::atomic<uint64_t> cost{0};
  // In-flight submissions of the plan (eviction guard: only idle entries,
  // live == 0, may be evicted). Records decrement it at resolution under
  // resolve_mutex_, while the cache reads it under mutex_.
  std::atomic<uint32_t> live{0};
  // The last ok/limit outcome of a run under the entry's budgets, marked
  // mirrored: what a sink-less same-budget repeat resolves with instead of
  // executing. Empty until such a run finishes. Cancelled, timed-out and
  // rejected runs never write it. Guarded by resolve_mutex_.
  std::optional<QueryOutcome> outcome;
};

// Shared state behind one Ticket. Exactly one of three shapes:
//  * executed:  sched_index (or fan) valid — the query ran (or runs) on
//               the pool;
//  * mirror:    a sink-less repeat resolved inside Submit from its cache
//               entry's stored outcome, without running;
//  * failed:    plan_status not-ok — failed planning or submitted after
//               Shutdown; resolved immediately.
// Resolution is eager and completion-driven: the scheduler's per-query
// completion hook resolves an executed record the moment its query
// finalises, after which the record is the slim, self-contained outcome
// store — the scheduler slot behind it is released (and, for
// plan-cache-off submissions, the compiled plan freed), so a record costs
// the scheduler nothing once its query finished, whether or not anyone
// ever retrieves the outcome.
struct QueryRecord {
  ServiceImpl* service = nullptr;
  // Pin on the service's resolve gate; lets Ticket reads outlive the
  // service (see ResolveGate).
  std::shared_ptr<ResolveGate> gate;
  uint64_t id = 0;
  Status plan_status;
  uint32_t sched_index = kNotScheduled;
  Hypergraph owned_query;  // keeps the plan's query alive for owning submits
  // Plan-cache-off submissions own their plan; freed at
  // resolution (cached plans instead live in ServiceImpl::cache_, bounded
  // by distinct query structures).
  std::unique_ptr<QueryPlan> owned_plan;
  // The plan-cache entry this executed record runs, pinned (share->live)
  // until resolution, when the pin drops and the measured cost and — for
  // a mirror_source run — an ok/limit outcome are written back. Null for
  // cache-off submissions and mirrors.
  std::shared_ptr<PlanShare> plan_share;
  // This run's budgets equal its cache entry's, so its outcome may serve
  // later repeats.
  bool mirror_source = false;
  // Sharded execution state; null for plain (shards <= 1) submissions.
  std::shared_ptr<ShardFan> fan;

  // Per-submit completion hook (SubmitOptions::completion); moved into the
  // fire list when the record resolves, which is what makes exactly-once
  // structural — a record resolves once, and the hook can only be taken
  // once. Guarded by resolve_mutex_.
  std::function<void(const QueryOutcome&)> completion;

  bool released = false;  // scheduler slot handed back; resolve_mutex_

  std::atomic<bool> resolved{false};
  QueryOutcome outcome;  // valid once `resolved`
};

class ServiceImpl {
 public:
  ServiceImpl(const IndexedHypergraph& data, const ServiceOptions& options)
      : data_(data),
        options_(options),
        owned_(std::make_unique<Scheduler>(data, ToSchedulerOptions(options))),
        sched_(owned_.get()) {
    if (!options.defer_start) {
      sched_->Start();
      started_ = true;
    }
  }

  // Shared-pool mode: execute on `pool`'s (already running) workers,
  // carrying data_ per submission. The pool outlives this service.
  ServiceImpl(const IndexedHypergraph& data, SchedulerPool& pool,
              const ServiceOptions& options)
      : data_(data), options_(options), sched_(&pool.scheduler()) {
    started_ = true;
  }

  ~ServiceImpl() { Shutdown(); }

  Ticket Submit(Hypergraph query, const SubmitOptions& so) {
    std::shared_ptr<QueryRecord> rec = NewRecord(so);
    rec->owned_query = std::move(query);
    return SubmitRecord(rec, rec->owned_query, so);
  }

  Ticket SubmitBorrowed(const Hypergraph& query, const SubmitOptions& so) {
    return SubmitRecord(NewRecord(so), query, so);
  }

  // One admission pass for the whole batch: everything SubmitRecord does
  // per query happens here once per *batch* (lock acquisition, record
  // sweep, wake + hook delivery), with the per-entry body unchanged —
  // ids, cache/mirror behaviour and hook ordering match N Submit() calls.
  std::vector<Ticket> SubmitBatch(std::vector<BatchSubmission> batch) {
    std::vector<std::shared_ptr<QueryRecord>> recs;
    recs.reserve(batch.size());
    for (BatchSubmission& b : batch) {
      recs.push_back(NewRecord(b.options));
      recs.back()->owned_query = std::move(b.query);
    }
    std::vector<FiredCompletion> fire;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      SweepResolvedRecordsLocked();
      for (size_t i = 0; i < recs.size(); ++i) {
        SubmitLocked(recs[i], recs[i]->owned_query, batch[i].options, &fire);
      }
    }
    if (!fire.empty()) {
      resolve_cv_.notify_all();
      FireCompletions(&fire);
    }
    std::vector<Ticket> tickets;
    tickets.reserve(recs.size());
    for (std::shared_ptr<QueryRecord>& rec : recs) {
      tickets.push_back(Ticket(std::move(rec)));
    }
    return tickets;
  }

  void Drain() {
    EnsureStarted();
    // On an owned pool, idling first is a cheap fast-forward; on a shared
    // pool it would wait on sibling services' queries too, and the
    // record wait below is sufficient on its own (every record resolves
    // through a completion hook).
    if (owned_ != nullptr) sched_->WaitIdle();
    WaitRecordsResolved();
  }

  // Blocks until every record submitted so far has resolved. The
  // completion hook of the very last query may still be mid-flight on a
  // worker when the pool goes idle; a drained service promises every
  // ticket *resolved*, so wait out the specific records still unresolved
  // at this point (a global count would not do: a submission racing in
  // behind us and resolving synchronously could stand in for the
  // straggler we are waiting for).
  void WaitRecordsResolved() {
    std::vector<std::shared_ptr<QueryRecord>> pending;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const auto& rec : records_) {
        if (!rec->resolved.load(std::memory_order_acquire)) {
          pending.push_back(rec);
        }
      }
    }
    std::unique_lock<std::mutex> lock(resolve_mutex_);
    for (const auto& rec : pending) {
      resolve_cv_.wait(lock, [&rec] {
        return rec->resolved.load(std::memory_order_acquire);
      });
    }
  }

  ServiceReport Shutdown() {
    std::lock_guard<std::mutex> shutdown_lock(shutdown_mutex_);
    if (shut_down_.load(std::memory_order_acquire)) return report_;
    {
      // Reject submissions racing with the shutdown *before* sealing the
      // scheduler: a scheduler submission after Seal() would never be
      // admitted.
      std::lock_guard<std::mutex> lock(mutex_);
      sealed_ = true;
      if (!started_) {
        sched_->Start();
        started_ = true;
      }
    }
    if (owned_ == nullptr) {
      // Shared pool: the pool keeps running for sibling services, so no
      // Seal/Join — wait for this service's own records instead (every
      // one resolves through a completion hook, sharded fans included),
      // then for in-flight hook deliveries to leave the building (Join
      // provides that barrier in owned mode; here nothing else would).
      WaitRecordsResolved();
      {
        std::unique_lock<std::mutex> lock(resolve_mutex_);
        resolve_cv_.wait(lock, [this] { return hook_busy_ == 0; });
      }
      std::lock_guard<std::mutex> lock(mutex_);
      report_.seconds = wall_.ElapsedSeconds();
      FillReportCountersLocked();
      shut_down_.store(true, std::memory_order_release);
      return report_;
    }
    sched_->Seal();
    sched_->WaitIdle();
    std::vector<FiredCompletion> fire;
    {
      // Every query has finished and almost every record already resolved
      // through its completion hook; sweep the stragglers whose hook is
      // still mid-flight on a worker, so Wait/TryGet after Shutdown are
      // pure reads and every slot is released *before* Join assembles its
      // report — a long-lived service then shuts down without
      // materialising an O(ever-submitted) outcome vector.
      std::lock_guard<std::mutex> lock(mutex_);
      std::lock_guard<std::mutex> resolve_lock(resolve_mutex_);
      for (auto& rec : records_) ResolveFinishedLocked(rec, &fire);
    }
    resolve_cv_.notify_all();
    FireCompletions(&fire);
    SchedulerReport sr = sched_->Join();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      report_.workers = std::move(sr.workers);
      report_.peak_task_bytes = sr.peak_task_bytes;
      report_.seconds = sr.seconds;
      FillReportCountersLocked();
    }
    shut_down_.store(true, std::memory_order_release);
    return report_;
  }

  uint32_t num_threads() const { return sched_->num_threads(); }

  ServiceGauges Gauges() {
    ServiceGauges g;
    g.finished = finished_.load(std::memory_order_acquire);
    g.live_contexts = sched_->LiveContexts();
    g.retained_slots = sched_->RetainedSlots();
    g.rejected = rejected_.load(std::memory_order_acquire);
    return g;
  }

  // ------------------------------------------------- ticket entry points --

  // Wait/WaitFor/TryGet live on Ticket itself: the read side parks on the
  // record's gate pin, never on the service, so a ticket held across its
  // service's destruction (catalog unload racing a waiter) stays safe.

  bool Cancel(const std::shared_ptr<QueryRecord>& rec) {
    if (rec->fan == nullptr) {
      // Resolution arrives through the scheduler's completion hook —
      // synchronously inside this call for queries cancelled while
      // queued, at the next task boundary for in-flight ones. A released
      // slot reports false here (long finished).
      return sched_->Cancel(rec->sched_index);
    }
    std::vector<uint32_t> subs;
    {
      std::lock_guard<std::mutex> lock(resolve_mutex_);
      if (rec->resolved.load(std::memory_order_acquire)) return false;
      subs = rec->fan->sub;
      // Slices still inside their own Submit call attach later;
      // AttachShardIndex observes the flag and cancels them then.
      rec->fan->cancel_issued = true;
    }
    // Sharded: cancel every attached sub-query; the fan resolves (status
    // kCancelled dominating ok/limit) once every slice does.
    bool any = false;
    for (uint32_t idx : subs) {
      if (idx != kNotScheduled && sched_->Cancel(idx)) any = true;
    }
    return any;
  }

 private:
  // Shared tail of both Shutdown modes. Callers hold mutex_.
  void FillReportCountersLocked() {
    report_.submitted = submitted_;
    report_.executed = executed_;
    report_.mirrored = mirrored_;
    report_.rejected = rejected_.load(std::memory_order_acquire);
    report_.plan_errors = plan_errors_;
    report_.plan_cache_hits = plan_cache_hits_;
    report_.plan_cache_isomorphic_hits = plan_cache_iso_hits_;
    report_.unique_plans = unique_plans_;
  }

  // One resolved record whose user-visible hooks are ready to fire once
  // every lock is released. The shared_ptr keeps the outcome alive
  // independent of the record registry.
  struct FiredCompletion {
    std::shared_ptr<QueryRecord> rec;
    std::function<void(const QueryOutcome&)> fn;
  };

  // Invokes the harvested hooks: the per-submit hook first, then the
  // service-wide one. Callers must hold no service or scheduler lock —
  // hooks may re-enter the read-side API (Ticket::TryGet).
  void FireCompletions(std::vector<FiredCompletion>* fire) {
    for (FiredCompletion& f : *fire) {
      if (f.fn) f.fn(f.rec->outcome);
      if (options_.on_query_complete) {
        options_.on_query_complete(f.rec->id, f.rec->outcome);
      }
    }
    fire->clear();
  }

  // The scheduler-level completion hook attached to every pool submission,
  // and the heart of completion-driven delivery: the moment the scheduler
  // finalises the query, the record resolves (slot released), every
  // Ticket::Wait is woken, and the user hooks fire — all on the thread
  // that finalised the outcome.
  void OnSchedulerComplete(const std::shared_ptr<QueryRecord>& rec,
                           const QueryOutcome& out) {
    std::vector<FiredCompletion> fire;
    {
      std::lock_guard<std::mutex> lock(resolve_mutex_);
      if (!rec->resolved.load(std::memory_order_acquire)) {
        ResolveLocked(rec, out, &fire);
      }
      // Claimed in the same critical section that publishes the resolved
      // flag, so a shared-pool Shutdown observing every record resolved
      // either sees this delivery finished or sees hook_busy_ > 0 — never
      // the gap where it could destroy the service under a live delivery.
      ++hook_busy_;
    }
    DeliverResolutions(&fire);
  }

  // The post-resolution delivery tail of a pool-worker completion hook:
  // wake waiters, fire user hooks, then drop the delivery claim taken
  // under resolve_mutex_. The final notify happens *under* the lock and is
  // the thread's last touch of the service, so a Shutdown waiter that
  // wakes on it can safely let the service be destroyed.
  void DeliverResolutions(std::vector<FiredCompletion>* fire) {
    resolve_cv_.notify_all();
    FireCompletions(fire);
    std::lock_guard<std::mutex> lock(resolve_mutex_);
    --hook_busy_;
    resolve_cv_.notify_all();
  }

  // Stores `out` as the record's final outcome, releases whatever the
  // record still pins (its scheduler slot, its plan-cache entry and, for
  // plan-cache-off submissions, the compiled plan), writes the measured
  // task count (cost-aware WFQ) and a mirrorable outcome back to the
  // cache entry, and harvests the completion hooks into *fire for
  // lock-free delivery by the caller. Callers hold resolve_mutex_,
  // guarantee !rec->resolved, and notify resolve_cv_ after releasing the
  // lock.
  void ResolveLocked(const std::shared_ptr<QueryRecord>& rec,
                     const QueryOutcome& out,
                     std::vector<FiredCompletion>* fire) {
    rec->outcome = out;
    if (rec->outcome.span.enabled) {
      // The record resolves exactly once, so this stamp is exactly-once
      // per query — a mirror gets its own stamp over the copied span.
      rec->outcome.span.resolve_seconds = MonotonicSeconds();
    }
    if (PlanShare* share = rec->plan_share.get()) {
      if (out.status == QueryStatus::kOk) {
        // Only complete runs measure the plan's true cost; partial runs
        // (timeout/cancel/limit) undercount and would skew later charges.
        share->cost.store(std::max<uint64_t>(1, out.stats.expansions),
                          std::memory_order_relaxed);
      }
      if (rec->mirror_source && Mirrorable(out.status)) {
        share->outcome = rec->outcome;
        share->outcome->mirrored = true;
      }
      // Unpins the entry for LRU eviction; exactly once per record
      // (resolution is exactly-once).
      share->live.fetch_sub(1, std::memory_order_acq_rel);
      rec->plan_share.reset();
    }
    if (rec->outcome.status == QueryStatus::kRejected) {
      rejected_.fetch_add(1, std::memory_order_acq_rel);
    }
    rec->resolved.store(true, std::memory_order_release);
    ReleaseSlotLocked(rec.get());
    fire->push_back({rec, std::move(rec->completion)});
    if (rec->sched_index != kNotScheduled || rec->fan != nullptr) {
      // The finished count (ServiceGauges::finished): bumped strictly after
      // this record's resolved flag, so an observer of the advanced count
      // always finds the outcome retrievable. A sharded record's fan is
      // set before any slice is submitted, so no attachment catch-up is
      // needed on the fan path.
      finished_.fetch_add(1, std::memory_order_release);
    }
  }

  // Releases the resolved record's scheduler slot(s) and, for
  // plan-cache-off submissions, frees the plan that served
  // exactly this query. Callers hold resolve_mutex_.
  void ReleaseSlotLocked(QueryRecord* rec) {
    if (rec->fan != nullptr) {
      if (rec->released) return;
      rec->released = true;
      // Parent resolution means every slice's completion hook already ran,
      // so every attached sub-slot is releasable; slices still inside
      // their own Submit call release at attachment (AttachShardIndex).
      for (uint32_t idx : rec->fan->sub) {
        if (idx != kNotScheduled) sched_->Release(idx);
      }
    } else {
      if (rec->released || rec->sched_index == kNotScheduled) return;
      rec->released = true;
      sched_->Release(rec->sched_index);
    }
    if (rec->owned_plan != nullptr) {
      rec->owned_plan.reset();
      rec->owned_query = Hypergraph();
    }
  }

  // Publishes the scheduler index of a just-submitted record, and finishes
  // any slot release the completion hook had to skip because it ran before
  // the index was known: a query can finalise on the pool (or synchronously
  // inside Submit, on the rejection path) before Submit's caller regains
  // control, and ResolveLocked then finds kNotScheduled. The catch-up also
  // performs the finished-count bump.
  void AttachSchedIndex(const std::shared_ptr<QueryRecord>& rec,
                        uint32_t index) {
    std::lock_guard<std::mutex> lock(resolve_mutex_);
    rec->sched_index = index;
    if (rec->resolved.load(std::memory_order_acquire) && !rec->released) {
      ReleaseSlotLocked(rec.get());
      finished_.fetch_add(1, std::memory_order_release);
    }
  }

  // Fan analogue of AttachSchedIndex: publishes slice k's scheduler index.
  // If the parent already resolved (this slice finished synchronously
  // inside its own Submit and was the last one), the slot is released
  // right here — the parent's ReleaseSlotLocked could not reach it. If a
  // cancellation was issued while this slice was mid-Submit, it is
  // cancelled on the way out.
  void AttachShardIndex(const std::shared_ptr<QueryRecord>& rec, uint32_t k,
                        uint32_t index) {
    bool cancel = false;
    {
      std::lock_guard<std::mutex> lock(resolve_mutex_);
      if (rec->released) {
        sched_->Release(index);
        return;
      }
      rec->fan->sub[k] = index;
      cancel = rec->fan->cancel_issued;
    }
    if (cancel) sched_->Cancel(index);
  }

  // Completion hook of fan slice k: fold the slice outcome into the
  // parent's running merge; the parent resolves when the last slice does.
  // A rejected slice (queue-bound shed) cancels its siblings so the fan
  // resolves promptly as kRejected instead of burning pool time on a
  // result that is already lost.
  void OnShardComplete(const std::shared_ptr<QueryRecord>& rec, uint32_t k,
                       const QueryOutcome& out) {
    std::vector<uint32_t> to_cancel;
    std::vector<FiredCompletion> fire;
    {
      std::lock_guard<std::mutex> lock(resolve_mutex_);
      ShardFan* fan = rec->fan.get();
      MergeShardOutcome(&fan->merged, out, fan->any);
      if (out.span.enabled) {
        fan->merged.span.slices.push_back({k, out.span.admit_seconds,
                                           out.span.first_task_seconds,
                                           out.span.last_task_seconds});
      }
      fan->any = true;
      if (out.status == QueryStatus::kRejected && !fan->cancel_issued) {
        fan->cancel_issued = true;
        for (uint32_t idx : fan->sub) {
          if (idx != kNotScheduled) to_cancel.push_back(idx);
        }
      }
      if (--fan->remaining == 0 &&
          !rec->resolved.load(std::memory_order_acquire)) {
        ResolveLocked(rec, fan->merged, &fire);
      }
      ++hook_busy_;  // see OnSchedulerComplete
    }
    // Cancel outside resolve_mutex_: Cancel fires sibling completion hooks
    // synchronously for still-queued slices, and those hooks re-enter this
    // function.
    for (uint32_t idx : to_cancel) sched_->Cancel(idx);
    DeliverResolutions(&fire);
  }

  // Shutdown path: resolve a straggler record from its finished scheduler
  // slot. Callers hold mutex_ + resolve_mutex_ after Seal()+WaitIdle(), so
  // every query has finished and every unresolved record's slot is still
  // retained.
  void ResolveFinishedLocked(const std::shared_ptr<QueryRecord>& rec,
                             std::vector<FiredCompletion>* fire) {
    if (rec->resolved.load(std::memory_order_acquire)) return;
    if (rec->fan != nullptr) {
      // Owned-mode Shutdown after Seal()+WaitIdle(): every slice finished
      // and attached (Submit callers are gone), so re-merge the lot — the
      // straggler here is the parent whose last hook is still mid-flight,
      // and a fresh merge of the authoritative per-slice outcomes is
      // race-free.
      QueryOutcome merged;
      bool any = false;
      for (uint32_t k = 0; k < rec->fan->sub.size(); ++k) {
        const uint32_t idx = rec->fan->sub[k];
        if (idx == kNotScheduled) continue;
        const QueryOutcome* out = sched_->TryGetQuery(idx);
        if (out == nullptr) return;  // hook mid-flight; resolves itself
        MergeShardOutcome(&merged, *out, any);
        if (out->span.enabled) {
          merged.span.slices.push_back({k, out->span.admit_seconds,
                                        out->span.first_task_seconds,
                                        out->span.last_task_seconds});
        }
        any = true;
      }
      if (any) ResolveLocked(rec, merged, fire);
      return;
    }
    const QueryOutcome* out = sched_->TryGetQuery(rec->sched_index);
    if (out != nullptr) ResolveLocked(rec, *out, fire);
  }

  void EnsureStarted() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_) {
      sched_->Start();
      started_ = true;
    }
  }

  double EffectiveTimeout(const SubmitOptions& so) const {
    return so.timeout_seconds < 0 ? options_.parallel.timeout_seconds
                                  : so.timeout_seconds;
  }

  uint64_t EffectiveLimit(const SubmitOptions& so) const {
    return so.limit == SubmitOptions::kInheritLimit ? options_.parallel.limit
                                                    : so.limit;
  }

  struct CacheEntry {
    // The cached plan (the entry is its owner, so evicting the entry
    // frees it).
    std::unique_ptr<QueryPlan> plan;
    // Exact structural key of the query the plan was compiled from. Under
    // the isomorphism-aware cache key, a hit whose own exact key differs
    // is an *isomorphic* hit (renamed vertices / reordered hyperedges):
    // counts transfer unchanged, but embedding tuples would follow this
    // query's edge numbering, so sink-ful isomorphic repeats compile
    // their own plan.
    std::string exact_key;
    // The record whose owned_query the cached plan references; pins the
    // query hypergraph for as long as the plan can be submitted.
    std::shared_ptr<QueryRecord> plan_owner;
    // Cost tracker, live pin and mirror source (see PlanShare).
    std::shared_ptr<PlanShare> share;
    // Position in lru_ (most-recent first); spliced to the front on every
    // hit. Guarded by mutex_.
    std::list<std::string>::iterator lru_it;
    double timeout_seconds = 0;  // the first submission's effective
    uint64_t limit = 0;          // budgets: only runs and repeats under
                                 // equal budgets write / read `share`'s
                                 // outcome
  };

  // The scheduler-bound SubmitOptions of one pool submission: the user's
  // parameters with budgets resolved against this service's defaults, the
  // cost-aware WFQ charge (charge this admission by the plan's last
  // measured task count; unmeasured and uncached plans keep the flat 1).
  // SubmitToPool replaces the user's completion hook with the service's
  // own; the user hooks fire at service-level resolution, inside it.
  SubmitOptions SchedulerSubmit(const SubmitOptions& so,
                                const QueryRecord& rec) const {
    SubmitOptions effective = so;
    // Resolve budget inheritance against *this service's* defaults: on a
    // shared pool the scheduler's own defaults belong to the pool, not to
    // this service.
    effective.timeout_seconds = EffectiveTimeout(so);
    effective.limit = EffectiveLimit(so);
    if (rec.plan_share != nullptr &&
        options_.admission == AdmissionPolicy::kWeightedFair) {
      const uint64_t measured =
          rec.plan_share->cost.load(std::memory_order_relaxed);
      if (measured > 0) effective.cost = static_cast<double>(measured);
    }
    return effective;
  }

  // Hands one record to the pool: plain single submission when sharding
  // is off, otherwise a K-way scan-slice fan-out whose slices merge back
  // into the one record (see ShardFan). Callers hold mutex_.
  void SubmitToPool(const std::shared_ptr<QueryRecord>& rec,
                    const QueryPlan* plan, const SubmitOptions& so) {
    SubmitOptions base = SchedulerSubmit(so, *rec);
    const uint32_t shards = std::max<uint32_t>(1, options_.shards);
    if (shards == 1) {
      base.completion = [this, rec](const QueryOutcome& out) {
        OnSchedulerComplete(rec, out);
      };
      AttachSchedIndex(rec, sched_->Submit(plan, data_, base));
      return;
    }
    // Set before the first slice is submitted: the slices' completion
    // hooks and every later reader find it in place.
    rec->fan = std::make_shared<ShardFan>();
    ShardFan* fan = rec->fan.get();
    fan->remaining = shards;
    fan->sub.assign(shards, kNotScheduled);
    if (so.sink != nullptr) {
      fan->locked_sink = std::make_unique<LockedSink>(so.sink);
    }
    for (uint32_t k = 0; k < shards; ++k) {
      SubmitOptions sub = base;
      sub.scan_slice = k;
      sub.scan_slices = shards;
      // Charge the fan's admission cost once across its slices, not K
      // times (the plan's measured cost covers the whole embedding set).
      sub.cost = std::max(1.0, sub.cost / shards);
      if (fan->locked_sink != nullptr) sub.sink = fan->locked_sink.get();
      sub.completion = [this, rec, k](const QueryOutcome& out) {
        OnShardComplete(rec, k, out);
      };
      AttachShardIndex(rec, k, sched_->Submit(plan, data_, sub));
    }
  }

  std::shared_ptr<QueryRecord> NewRecord(const SubmitOptions& so) {
    auto rec = std::make_shared<QueryRecord>();
    rec->service = this;
    rec->gate = gate_;
    rec->completion = so.completion;
    return rec;
  }

  Ticket SubmitRecord(const std::shared_ptr<QueryRecord>& rec,
                      const Hypergraph& query, const SubmitOptions& so) {
    std::vector<FiredCompletion> fire;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      SweepResolvedRecordsLocked();
      SubmitLocked(rec, query, so, &fire);
    }
    // Synchronously resolved submissions (rejections, plan errors,
    // mirrors) deliver their hooks before Submit returns; hooks of
    // executed queries fire from the pool when they finish.
    if (!fire.empty()) {
      resolve_cv_.notify_all();
      FireCompletions(&fire);
    }
    return Ticket(rec);
  }

  // The per-entry body of every submission: assigns the id, then rejects
  // (sealed service), mirrors, or plans and executes. Callers hold mutex_.
  void SubmitLocked(const std::shared_ptr<QueryRecord>& rec,
                    const Hypergraph& query, const SubmitOptions& so,
                    std::vector<FiredCompletion>* fire) {
    rec->id = submitted_++;
    records_.push_back(rec);
    if (sealed_) {
      FailLocked(rec, Status::InvalidArgument("service is shut down"), fire);
      return;
    }
    std::string key;
    std::string exact_key;
    // A sink-ful isomorphic (non-exact) hit: the cached plan's embedding
    // tuples follow its own query's edge numbering, so this submission
    // compiles a private plan below instead of reusing it — and must not
    // insert it, the key is already taken.
    bool uncacheable_hit = false;
    if (options_.plan_cache) {
      // An exact repeat of a cached structure finds its entry through the
      // exact-key index and skips the canonical labeller; everything else
      // pays for the labeller (when enabled) to find isomorphic hits.
      exact_key = ExactQueryKey(query);
      CacheSlot* hit = nullptr;
      if (auto xit = exact_index_.find(exact_key); xit != exact_index_.end()) {
        hit = xit->second;
        key = hit->first;
      } else {
        key = options_.plan_cache_isomorphism ? CanonicalQueryKey(query).key
                                              : 'X' + exact_key;
        auto it = cache_.find(key);
        if (it != cache_.end()) hit = &*it;
      }
      if (hit != nullptr) {
        CacheEntry& entry = hit->second;
        const bool exact_hit = entry.exact_key == exact_key;
        if (so.sink != nullptr && !exact_hit) {
          uncacheable_hit = true;
        } else {
          ++plan_cache_hits_;
          if (exact_hit) {
            Metrics().plan_cache_hits_exact->Add();
          } else {
            ++plan_cache_iso_hits_;
            Metrics().plan_cache_hits_isomorphic->Add();
          }
          if (options_.plan_cache_capacity > 0) {
            lru_.splice(lru_.begin(), lru_, entry.lru_it);
          }
          const bool same_budgets =
              EffectiveTimeout(so) == entry.timeout_seconds &&
              EffectiveLimit(so) == entry.limit;
          if (so.sink == nullptr && same_budgets) {
            // Counts are isomorphism-invariant, so isomorphic repeats
            // mirror like exact ones.
            std::lock_guard<std::mutex> resolve_lock(resolve_mutex_);
            if (entry.share->outcome.has_value()) {
              ResolveLocked(rec, *entry.share->outcome, fire);
              ++mirrored_;
              Metrics().mirrored->Add();
              return;
            }
          }
          // Execute on the shared plan: a sink-ful repeat, different
          // budgets, or no finished ok/limit run to mirror yet (including
          // a repeat of a query that is still running).
          ExecuteLocked(rec, entry.plan.get(), so, entry.share, same_budgets);
          return;
        }
      }
    }

    if (options_.plan_cache) Metrics().plan_cache_misses->Add();
    Result<QueryPlan> plan = BuildQueryPlan(query, data_);
    if (!plan.ok()) {
      FailLocked(rec, plan.status(), fire);
      return;
    }
    auto compiled = std::make_unique<QueryPlan>(std::move(plan).value());
    ++unique_plans_;
    if (!options_.plan_cache || uncacheable_hit) {
      // The plan serves exactly this record and is freed at resolution
      // (bounded retention for cache-off services).
      ExecuteLocked(rec, compiled.get(), so, nullptr, false);
      std::lock_guard<std::mutex> resolve_lock(resolve_mutex_);
      if (!rec->resolved.load(std::memory_order_acquire)) {
        rec->owned_plan = std::move(compiled);
      }
      // else: resolved synchronously inside Submit (shed by the queue
      // bound) and its slot already released — the plan dies here.
      return;
    }
    CacheEntry e;
    e.exact_key = std::move(exact_key);
    e.plan_owner = rec;
    e.share = std::make_shared<PlanShare>();
    e.timeout_seconds = EffectiveTimeout(so);
    e.limit = EffectiveLimit(so);
    if (options_.plan_cache_capacity > 0) {
      lru_.push_front(key);
      e.lru_it = lru_.begin();
    }
    // A first copy that is shed or cancelled leaves the entry without an
    // outcome; the next copy then executes on the cached plan.
    ExecuteLocked(rec, compiled.get(), so, e.share, true);
    e.plan = std::move(compiled);
    CacheSlot& slot = *cache_.emplace(std::move(key), std::move(e)).first;
    exact_index_.emplace(slot.second.exact_key, &slot);
    EvictIdlePlansLocked();
  }

  // Runs the record on the pool under `plan`. `share` (null when the plan
  // is not cached) is pinned until the record resolves; `mirror_source`
  // says the run's budgets equal the entry's. Callers hold mutex_.
  void ExecuteLocked(const std::shared_ptr<QueryRecord>& rec,
                     const QueryPlan* plan, const SubmitOptions& so,
                     std::shared_ptr<PlanShare> share, bool mirror_source) {
    if (share != nullptr) {
      // Pinned before the pool can race an eviction pass; unpinned once,
      // at resolution.
      share->live.fetch_add(1, std::memory_order_acq_rel);
      rec->plan_share = std::move(share);
      rec->mirror_source = mirror_source;
    }
    SubmitToPool(rec, plan, so);
    // A submission shed by the queue-depth bound resolves synchronously
    // inside the scheduler's Submit; it counts as rejected, not executed
    // (report semantics: `executed` = queries that actually ran).
    if (!rec->resolved.load(std::memory_order_acquire) ||
        rec->outcome.status != QueryStatus::kRejected) {
      ++executed_;
    }
  }

  // A submission that never reaches the pool: planning failed or the
  // service is sealed. Resolves the fresh record at once; callers hold
  // mutex_, and fire + notify after releasing it.
  void FailLocked(const std::shared_ptr<QueryRecord>& rec, Status status,
                  std::vector<FiredCompletion>* fire) {
    rec->plan_status = std::move(status);
    ++plan_errors_;
    QueryOutcome out;
    out.status = QueryStatus::kPlanError;
    std::lock_guard<std::mutex> lock(resolve_mutex_);
    ResolveLocked(rec, out, fire);
  }

  // Walks the LRU list cold-end-first, evicting idle (no in-flight
  // submission) entries until the cache is back under
  // plan_cache_capacity; entries pinned by a live submission are skipped,
  // so the cache transiently overshoots rather than evict a plan the pool
  // is executing. Callers hold mutex_.
  void EvictIdlePlansLocked() {
    const size_t cap = options_.plan_cache_capacity;
    if (cap == 0) return;
    auto it = lru_.end();
    while (cache_.size() > cap && it != lru_.begin()) {
      --it;
      auto cit = cache_.find(*it);
      if (cit->second.share->live.load(std::memory_order_acquire) != 0) {
        continue;
      }
      Metrics().plan_cache_evictions->Add();
      // erase returns the position after the erased element; the next
      // pass's --it lands on the element before it, so the walk keeps
      // moving frontward without revisiting anything.
      it = lru_.erase(it);
      exact_index_.erase(cit->second.exact_key);
      cache_.erase(cit);
    }
  }

  // Opportunistic GC for long-lived services: a resolved record is a pure
  // read through whatever tickets still hold it and is never needed by
  // Shutdown's resolve-all loop, so it can leave the registry (the
  // shared_ptr keeps live tickets valid, and plan owners stay reachable
  // through cache_). Amortised O(1): sweep only
  // when the registry doubled since the last sweep. Callers hold mutex_.
  void SweepResolvedRecordsLocked() {
    if (records_.size() < 64 || records_.size() < 2 * last_sweep_size_) {
      return;
    }
    std::erase_if(records_, [](const std::shared_ptr<QueryRecord>& rec) {
      return rec->resolved.load(std::memory_order_acquire);
    });
    last_sweep_size_ = records_.size();
  }

  const IndexedHypergraph& data_;
  const ServiceOptions options_;
  // Owned mode: owned_ holds the pool and sched_ points at it. Shared
  // (SchedulerPool) mode: owned_ is null and sched_ points at the pool's
  // scheduler, which outlives this service.
  std::unique_ptr<Scheduler> owned_;
  Scheduler* sched_ = nullptr;
  Timer wall_;  // service wall clock (shared-mode report seconds)

  std::mutex mutex_;  // cache, records, counters
  using CacheSlot = std::pair<const std::string, CacheEntry>;
  std::unordered_map<std::string, CacheEntry> cache_;
  // CacheEntry::exact_key -> its element of cache_ (element pointers
  // survive rehashing); one index entry per cache entry, removed with it.
  // Guarded by mutex_.
  std::unordered_map<std::string, CacheSlot*> exact_index_;
  // Cache keys, most-recently-used first; maintained (and non-empty) only
  // when plan_cache_capacity > 0. Guarded by mutex_.
  std::list<std::string> lru_;
  std::vector<std::shared_ptr<QueryRecord>> records_;
  uint64_t submitted_ = 0;
  uint64_t executed_ = 0;
  uint64_t mirrored_ = 0;
  uint64_t plan_errors_ = 0;
  uint64_t plan_cache_hits_ = 0;
  uint64_t plan_cache_iso_hits_ = 0;  // hits whose exact key differed
  uint64_t unique_plans_ = 0;  // plans compiled (cached or record-owned)
  size_t last_sweep_size_ = 0;
  bool sealed_ = false;
  bool started_ = false;  // guarded by mutex_ after construction

  // Lock order: mutex_ before resolve_mutex_; scheduler-internal locks are
  // only ever taken *under* resolve_mutex_ (Release/TryGet),
  // never the other way around — the scheduler fires completion hooks with
  // no lock held.
  // Record resolution parks on the shared gate (see
  // ResolveGate); the references keep the service-internal code reading
  // as plain members.
  const std::shared_ptr<ResolveGate> gate_ = std::make_shared<ResolveGate>();
  std::mutex& resolve_mutex_ = gate_->m;
  std::condition_variable& resolve_cv_ = gate_->cv;  // armed by the hook
  std::atomic<uint64_t> finished_{0};  // pool submissions resolved
  // Pool-worker completion deliveries (notify + user hooks) currently in
  // flight; a shared-pool Shutdown waits for 0 so destroying the service
  // afterwards cannot pull state from under a live delivery. Guarded by
  // resolve_mutex_.
  uint64_t hook_busy_ = 0;
  // Service-level rejection count (this service's own shed submissions —
  // the scheduler's pool-wide counter would conflate siblings on a
  // shared pool).
  std::atomic<uint64_t> rejected_{0};

  std::mutex shutdown_mutex_;
  std::atomic<bool> shut_down_{false};
  ServiceReport report_;
};

}  // namespace internal

// ------------------------------------------------------------------ Ticket --

uint64_t Ticket::id() const { return rec_->id; }

const Status& Ticket::status() const { return rec_->plan_status; }

const QueryOutcome& Ticket::Wait() const {
  internal::QueryRecord* rec = rec_.get();
  if (rec->resolved.load(std::memory_order_acquire)) return rec->outcome;
  // Park on the record's gate pin, not the service: the service can be
  // destroyed (catalog unload drains on the completion hook) while a woken
  // waiter is still inside the condition wait, and the gate's shared
  // ownership is what keeps that legal.
  const std::shared_ptr<internal::ResolveGate> gate = rec->gate;
  std::unique_lock<std::mutex> lock(gate->m);
  gate->cv.wait(lock, [rec] {
    return rec->resolved.load(std::memory_order_acquire);
  });
  return rec->outcome;
}

const QueryOutcome* Ticket::Wait(double timeout_seconds) const {
  internal::QueryRecord* rec = rec_.get();
  if (rec->resolved.load(std::memory_order_acquire)) return &rec->outcome;
  const std::shared_ptr<internal::ResolveGate> gate = rec->gate;
  std::unique_lock<std::mutex> lock(gate->m);
  gate->cv.wait_for(
      lock,
      std::chrono::duration<double>(timeout_seconds > 0 ? timeout_seconds : 0),
      [rec] { return rec->resolved.load(std::memory_order_acquire); });
  return rec->resolved.load(std::memory_order_acquire) ? &rec->outcome
                                                       : nullptr;
}

const QueryOutcome* Ticket::TryGet() const {
  // Resolution is eager (completion hook), so the resolved flag is the
  // whole truth — no scheduler consultation, no lock, no service touch.
  return rec_->resolved.load(std::memory_order_acquire) ? &rec_->outcome
                                                        : nullptr;
}

bool Ticket::Cancel() const {
  if (rec_->resolved.load(std::memory_order_acquire)) return false;
  return rec_->service->Cancel(rec_);
}

// ----------------------------------------------------------- SchedulerPool --

SchedulerOptions ToSchedulerOptions(const ServiceOptions& o) {
  SchedulerOptions so;
  so.parallel = o.parallel;
  so.admission = o.admission;
  so.max_inflight_queries = o.max_inflight_queries;
  so.max_queued_queries = o.max_queued_queries;
  so.task_quota = o.task_quota;
  so.batch_timeout_seconds = o.run_timeout_seconds;
  return so;
}

SchedulerPool::SchedulerPool(const ServiceOptions& options)
    : scheduler_(std::make_unique<Scheduler>(ToSchedulerOptions(options))) {
  scheduler_->Start();
}

SchedulerPool::~SchedulerPool() {
  scheduler_->Seal();
  scheduler_->Join();
}

// ------------------------------------------------------------ MatchService --

MatchService::MatchService(const IndexedHypergraph& data,
                           const ServiceOptions& options)
    : impl_(std::make_unique<internal::ServiceImpl>(data, options)) {}

MatchService::MatchService(const IndexedHypergraph& data, SchedulerPool& pool,
                           const ServiceOptions& options)
    : impl_(std::make_unique<internal::ServiceImpl>(data, pool, options)) {}

MatchService::~MatchService() = default;

Ticket MatchService::Submit(Hypergraph query, const SubmitOptions& options) {
  return impl_->Submit(std::move(query), options);
}

Ticket MatchService::SubmitBorrowed(const Hypergraph& query,
                                    const SubmitOptions& options) {
  return impl_->SubmitBorrowed(query, options);
}

std::vector<Ticket> MatchService::SubmitBatch(
    std::vector<BatchSubmission> batch) {
  return impl_->SubmitBatch(std::move(batch));
}

void MatchService::Drain() { impl_->Drain(); }

ServiceReport MatchService::Shutdown() { return impl_->Shutdown(); }

uint32_t MatchService::num_threads() const { return impl_->num_threads(); }

ServiceGauges MatchService::Gauges() { return impl_->Gauges(); }

}  // namespace hgmatch
