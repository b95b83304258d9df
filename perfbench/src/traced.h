// Copyright 2026 mpqopt authors.
//
// The traced arrival path. It serves one arrival through the same
// public calls OptimizerService::Optimize makes — FingerprintQuery,
// PlanCache::Lookup/Insert, MpqOptimizer::BuildRequests, the backend's
// RunRound over MpqOptimizer::WorkerMain tasks, FinalizeResponses — on
// the service's own plan cache and backend, and wraps each call in a
// span recorded here, in the benchmark. Nothing inside the library is
// instrumented: every span is timed from outside the call it names.
//
// Spans live in memory (one ArrivalTrace per arrival) until the run
// ends; the driver then computes self times and writes them out.

#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "bench_math.h"
#include "mpq/mpq.h"
#include "service/optimizer_service.h"
#include "sma/sma.h"

namespace perfbench {

/// Monotonic nanoseconds and the calling thread's CPU nanoseconds.
int64_t NowNs();
int64_t ThreadCpuNs();

using Span = SpanRecord;

/// The spans of one arrival. Begin/End are called by the client thread;
/// Add may also be called from backend pool threads.
class ArrivalTrace {
 public:
  int Begin(const char* name, int parent);
  void End(int span);
  int Add(const Span& span);
  /// Only once every call of the arrival has returned.
  const std::vector<Span>& spans() const { return spans_; }
  std::vector<Span> Take() { return std::move(spans_); }

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// What the traced path learned about one MPQ miss, beyond its spans.
struct RoundFacts {
  bool ran = false;             ///< false for a cache hit
  double round_s = 0;           ///< RunRound wall time
  std::vector<double> partition_s;  ///< per partition: CPU (in-process)
                                    ///< or worker-reported compute (rpc)
  int executors = 1;            ///< hosts the partitions shared
  uint64_t response_bytes = 0;
  uint64_t net_bytes = 0;
  uint64_t net_messages = 0;
};

/// Serves one MPQ arrival through the decomposed public calls, on the
/// service's cache and backend, recording spans under a root "service"
/// span. `remote` says the backend ships tasks to worker processes, so
/// tasks cannot be wrapped: the round's worker-reported compute is then
/// charged to a synthetic "optimizer.remote" child of the round (its
/// balanced floor), the rest stays with the round.
mpqopt::StatusOr<mpqopt::MpqResult> TracedOptimize(
    mpqopt::OptimizerService* service, const mpqopt::Query& query,
    const mpqopt::MpqOptions& options, bool remote, int executors,
    ArrivalTrace* trace, RoundFacts* facts);

/// Serves one SMA arrival under a root "service" span with one
/// "sma.optimize" child.
mpqopt::StatusOr<mpqopt::SmaResult> TracedSma(
    const mpqopt::Query& query, const mpqopt::SmaOptions& options,
    ArrivalTrace* trace);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
