// Copyright 2026 mpqopt authors.
//
// The benchmark's own arithmetic, kept free of any mpqopt dependency
// beyond the header-only obs::Percentile, so perfbench_selftest can check
// it in isolation:
//
//  * TailOf               — the tail rule every *_tail_ms metric uses.
//  * FailureCount         — how arrivals become `attempted` / `failed`.
//  * AttributeSelfTimes   — the wall-clock ledger of one traced arrival.
//  * ModeledSpeedup       — the paper's cluster model behind
//                           `modeled_speedup`.

#ifndef PERFBENCH_BENCH_MATH_H_
#define PERFBENCH_BENCH_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/percentile.h"

namespace perfbench {

/// The percentile estimator of the whole repo (rank interpolation,
/// numpy's default); every percentile the benchmark reports uses it.
using mpqopt::obs::Percentile;

/// The percentile ladder the tail rule climbs, highest first. It stops
/// at p95: on a shared 4-core virtual machine the samples beyond p95 of
/// a microsecond operation are set by host preemption, and their
/// run-to-run spread is wider than any bound a regression gate can use.
inline constexpr double kTailLadder[] = {95.0, 90.0, 75.0, 50.0};

/// Samples the tail must leave strictly beyond it.
inline constexpr size_t kTailMinBeyond = 10;

/// A tail statistic together with the evidence behind it.
struct Tail {
  double percentile = 50;  ///< which ladder rung was used
  double value = 0;        ///< the percentile's value
  size_t samples = 0;      ///< sample count the percentile was taken over
  size_t beyond = 0;       ///< samples ranked above the percentile
};

/// Samples ranked above percentile `p` of `n` samples: n - ceil(n*p/100).
inline size_t SamplesBeyond(size_t n, double p) {
  const double at = std::ceil(static_cast<double>(n) * p / 100.0 - 1e-9);
  return n - std::min(n, static_cast<size_t>(at));
}

/// The tail rule: the highest ladder percentile with at least
/// kTailMinBeyond samples beyond it. With fewer than 20 samples no rung
/// qualifies and the tail falls back to the median (p50).
inline Tail TailOf(const std::vector<double>& sorted) {
  Tail tail;
  tail.samples = sorted.size();
  for (double p : kTailLadder) {
    if (SamplesBeyond(sorted.size(), p) >= kTailMinBeyond || p == 50.0) {
      tail.percentile = p;
      break;
    }
  }
  tail.beyond = SamplesBeyond(sorted.size(), tail.percentile);
  tail.value = Percentile(sorted, tail.percentile);
  return tail;
}

/// Outcome of one arrival. An arrival is attempted once; it fails when
/// the call returned an error (including a refusal) or when any output
/// check rejected what it returned. A failed call is never also counted
/// as a check failure.
struct FailureCount {
  uint64_t attempted = 0;
  uint64_t failed_calls = 0;
  uint64_t failed_checks = 0;

  void Add(bool call_ok, bool checks_ok) {
    ++attempted;
    if (!call_ok) {
      ++failed_calls;
    } else if (!checks_ok) {
      ++failed_checks;
    }
  }
  /// A check that could only run after the window (a reference
  /// comparison) rejected an arrival whose Add() reported it clean.
  void MarkCheckFailed() { ++failed_checks; }
  void Merge(const FailureCount& other) {
    attempted += other.attempted;
    failed_calls += other.failed_calls;
    failed_checks += other.failed_checks;
  }
  uint64_t failed() const { return failed_calls + failed_checks; }
  double ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
};

/// One recorded span of a traced arrival: a call timed from outside.
/// `name` is a string literal "<layer>.<call>"; `parent` indexes the
/// arrival's span vector (-1 for the root); times are nanoseconds on
/// one clock.
struct SpanRecord {
  const char* name = "";
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t cpu_ns = 0;  ///< thread CPU inside the span, where measured
};

/// The layer a span name belongs to: the text before the first '.'.
inline std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

/// Wall-clock self time of every span of one arrival, in nanoseconds.
///
/// Every instant of the root span is given to the deepest spans open at
/// that instant: when k sibling spans overlap (partitions running in
/// parallel), each gets 1/k of the instant; when no child is open the
/// parent keeps it. Children are clipped to their parent. The self
/// times therefore sum to the root's duration exactly — the identity
/// the ledger reconciles against. Spans must be listed parent-first.
inline std::vector<double> AttributeSelfTimes(
    const std::vector<SpanRecord>& spans) {
  std::vector<double> self(spans.size(), 0.0);
  if (spans.empty()) return self;
  std::vector<std::vector<int>> children(spans.size());
  for (size_t i = 1; i < spans.size(); ++i) {
    children[static_cast<size_t>(spans[i].parent)].push_back(
        static_cast<int>(i));
  }
  // Effective (clipped) interval of each span.
  std::vector<int64_t> lo(spans.size()), hi(spans.size());
  lo[0] = spans[0].start_ns;
  hi[0] = std::max(spans[0].start_ns, spans[0].end_ns);
  for (size_t i = 1; i < spans.size(); ++i) {
    const size_t p = static_cast<size_t>(spans[i].parent);
    lo[i] = std::clamp(spans[i].start_ns, lo[p], hi[p]);
    hi[i] = std::clamp(spans[i].end_ns, lo[i], hi[p]);
  }
  std::vector<int64_t> cuts;
  cuts.reserve(2 * spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    cuts.push_back(lo[i]);
    cuts.push_back(hi[i]);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  // Walk every elementary segment down the tree, splitting its length
  // evenly among the children open across it.
  struct Frame {
    int span;
    double weight;
  };
  std::vector<Frame> stack;
  std::vector<int> open;
  for (size_t c = 0; c + 1 < cuts.size(); ++c) {
    const int64_t a = cuts[c];
    const int64_t b = cuts[c + 1];
    const double length = static_cast<double>(b - a);
    stack.assign(1, Frame{0, 1.0});
    while (!stack.empty()) {
      const Frame frame = stack.back();
      stack.pop_back();
      open.clear();
      for (int child : children[static_cast<size_t>(frame.span)]) {
        if (lo[static_cast<size_t>(child)] <= a &&
            hi[static_cast<size_t>(child)] >= b) {
          open.push_back(child);
        }
      }
      if (open.empty()) {
        self[static_cast<size_t>(frame.span)] += length * frame.weight;
        continue;
      }
      const double share = frame.weight / static_cast<double>(open.size());
      for (int child : open) stack.push_back(Frame{child, share});
    }
  }
  return self;
}

/// The smallest factor f >= 1 such that every cost vector of `reference`
/// is f-covered by `frontier`: some frontier vector is <= f times it in
/// every metric. `V` provides num_metrics() and operator[]. An empty
/// frontier covers nothing (infinity); an empty reference needs 1.
template <typename V>
double CoverFactor(const std::vector<V>& frontier,
                   const std::vector<V>& reference) {
  double worst = 1.0;
  for (const V& ref : reference) {
    double best = INFINITY;
    for (const V& f : frontier) {
      double need = 1.0;
      for (int i = 0; i < ref.num_metrics(); ++i) {
        need = std::max(need, f[i] / ref[i]);
      }
      best = std::min(best, need);
    }
    worst = std::max(worst, best);
  }
  return worst;
}

/// Inputs of the paper's cluster model for one query (seconds, bytes).
struct ModeledQuery {
  double serial_cpu_s = 0;     ///< OptimizeSerial thread-CPU time
  double build_cpu_s = 0;      ///< BuildRequests thread-CPU time
  double finalize_cpu_s = 0;   ///< FinalizeResponses thread-CPU time
  std::vector<double> partition_cpu_s;    ///< WorkerMain per partition
  std::vector<uint64_t> request_bytes;    ///< per partition
  std::vector<uint64_t> response_bytes;   ///< per partition
};

/// Network parameters of the model (mirrors mpqopt's NetworkModel).
struct ModelNetwork {
  double latency_s = 0;
  double bandwidth_bytes_per_s = 1;
  double task_setup_s = 0;
  double Transfer(uint64_t bytes) const {
    return latency_s + static_cast<double>(bytes) / bandwidth_bytes_per_s;
  }
};

/// Modeled MPQ time of one query with one node per partition: Phase 1
/// on the master, serial task dispatch, the slowest partition including
/// its request and response transfer, and Phase 3 on the master.
inline double ModeledParallelSeconds(const ModeledQuery& q,
                                     const ModelNetwork& net) {
  double slowest = 0;
  for (size_t i = 0; i < q.partition_cpu_s.size(); ++i) {
    slowest = std::max(slowest, net.Transfer(q.request_bytes[i]) +
                                    q.partition_cpu_s[i] +
                                    net.Transfer(q.response_bytes[i]));
  }
  return q.build_cpu_s +
         static_cast<double>(q.partition_cpu_s.size()) * net.task_setup_s +
         slowest + q.finalize_cpu_s;
}

/// `modeled_speedup` over a sample of queries: total serial CPU over
/// total modeled parallel time, so large queries weigh in by their cost.
inline double ModeledSpeedup(const std::vector<ModeledQuery>& queries,
                             const ModelNetwork& net) {
  double serial = 0;
  double parallel = 0;
  for (const ModeledQuery& q : queries) {
    serial += q.serial_cpu_s;
    parallel += ModeledParallelSeconds(q, net);
  }
  return parallel > 0 ? serial / parallel : 0;
}

/// The balanced compute floor of one round: no schedule of the
/// partitions on `executors` hosts can finish before the slowest
/// partition, nor before the total work divided by the executors.
inline double BalancedFloor(const std::vector<double>& partition_s,
                            int executors) {
  double total = 0;
  double slowest = 0;
  for (double s : partition_s) {
    total += s;
    slowest = std::max(slowest, s);
  }
  return std::max(slowest, total / std::max(executors, 1));
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_MATH_H_
