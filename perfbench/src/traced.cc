// Copyright 2026 mpqopt authors.

#include "traced.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <memory>

#include "bench_math.h"
#include "plancache/fingerprint.h"
#include "plancache/plan_cache.h"

namespace perfbench {

using mpqopt::MpqOptimizer;
using mpqopt::MpqResult;
using mpqopt::StatusOr;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

int ArrivalTrace::Begin(const char* name, int parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.start_ns = NowNs();
  return Add(span);
}

void ArrivalTrace::End(int span) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(span)].end_ns = now;
}

int ArrivalTrace::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
  return static_cast<int>(spans_.size() - 1);
}

namespace {

constexpr const char kPartitionSpan[] = "optimizer.partition";

/// Closes a span when the scope ends.
class Scope {
 public:
  Scope(ArrivalTrace* trace, const char* name, int parent)
      : trace_(trace), span_(trace->Begin(name, parent)) {}
  ~Scope() { trace_->End(span_); }
  int id() const { return span_; }

 private:
  ArrivalTrace* trace_;
  int span_;
};

}  // namespace

StatusOr<MpqResult> TracedOptimize(mpqopt::OptimizerService* service,
                                   const mpqopt::Query& query,
                                   const mpqopt::MpqOptions& options,
                                   bool remote, int executors,
                                   ArrivalTrace* trace, RoundFacts* facts) {
  mpqopt::PlanCache* cache = service->plan_cache();
  const std::shared_ptr<mpqopt::ExecutionBackend> backend =
      service->shared_backend();
  Scope root(trace, "service", -1);

  mpqopt::PlanCacheKey key;
  {
    Scope s(trace, "plancache.fingerprint", root.id());
    key = mpqopt::FingerprintQuery(query, options);
  }
  std::shared_ptr<const mpqopt::CachedPlan> hit;
  {
    Scope s(trace, "plancache.lookup", root.id());
    hit = cache->Lookup(key);
  }
  if (hit != nullptr) {
    Scope s(trace, "plancache.copy_out", root.id());
    MpqResult result;
    result.arena = hit->arena;
    result.best = hit->best;
    result.from_plan_cache = true;
    return result;
  }

  const uint64_t epoch = cache->statistics_epoch();
  std::vector<std::vector<uint8_t>> requests;
  {
    Scope s(trace, "mpq.serialize", root.id());
    requests = MpqOptimizer::BuildRequests(query, options);
  }
  StatusOr<mpqopt::RoundResult> round = mpqopt::Status::Internal("no round");
  int64_t round_start = 0;
  int64_t round_end = 0;
  int round_span = -1;
  {
    Scope s(trace, "cluster.round", root.id());
    round_span = s.id();
    std::vector<mpqopt::WorkerTask> tasks;
    if (remote) {
      // The rpc backend ships registered entry points, not closures.
      tasks.assign(requests.size(),
                   mpqopt::WorkerTask(&MpqOptimizer::WorkerMain));
    } else {
      const mpqopt::WorkerTask timed =
          [trace, round_span](const std::vector<uint8_t>& request) {
            Span span;
            span.name = kPartitionSpan;
            span.parent = round_span;
            span.start_ns = NowNs();
            const int64_t cpu_start = ThreadCpuNs();
            StatusOr<std::vector<uint8_t>> response =
                MpqOptimizer::WorkerMain(request);
            span.cpu_ns = ThreadCpuNs() - cpu_start;
            span.end_ns = NowNs();
            trace->Add(span);
            return response;
          };
      tasks.assign(requests.size(), timed);
    }
    round_start = NowNs();
    round = backend->RunRound(tasks, requests);
    round_end = NowNs();
  }
  if (!round.ok()) return round.status();

  facts->ran = true;
  facts->executors = executors;
  facts->round_s = static_cast<double>(round_end - round_start) * 1e-9;
  facts->net_bytes = round.value().traffic.bytes_sent;
  facts->net_messages = round.value().traffic.messages;
  for (const std::vector<uint8_t>& response : round.value().responses) {
    facts->response_bytes += response.size();
  }
  if (remote) {
    facts->partition_s = round.value().compute_seconds;
    const double floor = BalancedFloor(facts->partition_s, executors);
    Span span;
    span.name = "optimizer.remote";
    span.parent = round_span;
    span.start_ns = round_start;
    span.end_ns =
        round_start + std::min(static_cast<int64_t>(floor * 1e9),
                               round_end - round_start);
    trace->Add(span);
  } else {
    for (const Span& span : trace->spans()) {
      if (span.name == kPartitionSpan) {
        facts->partition_s.push_back(static_cast<double>(span.cpu_ns) * 1e-9);
      }
    }
  }

  StatusOr<MpqResult> result = mpqopt::Status::Internal("not finalized");
  {
    Scope s(trace, "mpq.finalize", root.id());
    result = MpqOptimizer::FinalizeResponses(round.value().responses, options);
  }
  if (!result.ok()) return result;
  {
    Scope s(trace, "plancache.insert", root.id());
    cache->Insert(key, query.TableStatistics(), result.value().arena,
                  result.value().best, epoch);
  }
  return result;
}

StatusOr<mpqopt::SmaResult> TracedSma(const mpqopt::Query& query,
                                      const mpqopt::SmaOptions& options,
                                      ArrivalTrace* trace) {
  Scope root(trace, "service", -1);
  Scope s(trace, "sma.optimize", root.id());
  return mpqopt::SmaOptimize(query, options);
}

}  // namespace perfbench
