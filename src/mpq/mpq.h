// Copyright 2026 mpqopt authors.
//
// MPQ — massively parallel query optimization (paper Section 4).
//
// The master maps the optimization of one query to exactly one task per
// worker: it serializes (query + statistics, partition id, partition
// count) to each of the m workers, each worker independently decodes its
// partition id into join-order constraints, runs the constrained DP over
// its plan-space partition, and returns the partition-optimal plan(s).
// The master's final prune over the m returned plans yields the global
// optimum. One communication round per query; no worker-to-worker
// communication; O(m * (b_q + b_p)) bytes on the wire (Theorem 1).

#ifndef MPQOPT_MPQ_MPQ_H_
#define MPQOPT_MPQ_MPQ_H_

#include <cstdint>
#include <vector>

#include <memory>

#include "catalog/query.h"
#include "cluster/backend.h"
#include "common/status.h"
#include "net/network_model.h"
#include "optimizer/dp.h"
#include "plan/plan.h"

namespace mpqopt {

/// Options of one MPQ optimization run.
struct MpqOptions {
  PlanSpace space = PlanSpace::kLinear;
  Objective objective = Objective::kTime;
  /// Approximation factor of the multi-objective pruning function.
  double alpha = 10.0;
  /// Enable the interesting-orders DP on the workers (single-objective
  /// only; see optimizer/orders.h).
  bool interesting_orders = false;
  /// Number of plan-space partitions / worker tasks. Must be a power of
  /// two not exceeding MaxWorkers(n, space); see UsableWorkers().
  uint64_t num_workers = 1;
  /// Simulated-cluster parameters.
  NetworkModel network;
  /// Host-side cap on worker tasks running at once, the calling thread
  /// included (0 = all cores); only consulted when `backend` is null and
  /// a private backend is created.
  int max_threads = 0;
  /// Worker-execution runtime. Null (default) gives the optimizer a
  /// private async backend with `max_threads` - 1 helper threads (see
  /// MakeDefaultBackend), built from `network`. Pass a
  /// shared backend (see MakeBackend / OptimizerService) to multiplex
  /// many optimizer runs onto one long-lived worker pool; a non-null
  /// backend's own NetworkModel governs the simulated cluster time.
  std::shared_ptr<ExecutionBackend> backend;
  CostModelOptions cost_options;
  int64_t max_memo_entries = int64_t{1} << 28;
  /// Threads for the master's Phase-3 response decode (sharded finalize).
  /// 0 = auto (hardware concurrency, capped by the partition count);
  /// 1 = fully serial. Plan choice is byte-identical at every setting:
  /// only the decode is parallel, the prune itself merges the partitions
  /// in their original order. Not part of the plan-cache fingerprint —
  /// a master-side execution knob cannot change the answer.
  int finalize_threads = 0;
};

/// Everything the benchmarks need from one run.
struct MpqResult {
  /// Master-side arena holding the returned plans.
  PlanArena arena;
  /// Globally optimal plan (kTime: exactly one) or the merged
  /// alpha-approximate Pareto frontier (kTimeAndBuffer).
  std::vector<PlanId> best;

  /// Modeled cluster completion time (paper "Time"): task dispatch +
  /// slowest worker including transfers + master serialize/prune time.
  double simulated_seconds = 0;
  /// Measured wall-clock on this host (workers multiplexed onto cores).
  double wall_seconds = 0;
  /// Measured master-side time (serialization + final pruning).
  double master_seconds = 0;
  /// Max measured per-worker optimization time (paper "W-Time").
  double max_worker_seconds = 0;
  /// Max per-worker memo size in table sets (paper "Memory (relations)").
  int64_t max_worker_memo_sets = 0;

  uint64_t network_bytes = 0;
  uint64_t network_messages = 0;

  /// True when the plan was served from the OptimizerService plan cache:
  /// no worker round ran, so the timing/traffic fields above are zero and
  /// the per-worker vectors below are empty.
  bool from_plan_cache = false;

  /// Per-worker detail, indexed by partition id.
  std::vector<double> worker_seconds;
  std::vector<int64_t> worker_memo_sets;
  int64_t total_splits = 0;
  int64_t total_plans_costed = 0;
};

/// Parallel query optimizer (the paper's Algorithm 1 master).
class MpqOptimizer {
 public:
  explicit MpqOptimizer(MpqOptions options);

  /// Optimizes `query` across options.num_workers plan-space partitions.
  StatusOr<MpqResult> Optimize(const Query& query);

  /// The worker entry point (paper Algorithm 2): fully self-contained
  /// request-bytes -> response-bytes function, suitable for remote
  /// execution. Exposed publicly so tests can exercise the wire contract.
  static StatusOr<std::vector<uint8_t>> WorkerMain(
      const std::vector<uint8_t>& request);

  /// Builds the wire request for one partition (paper: query + partition
  /// id + partition count). Exposed for tests and byte-accounting tools.
  static std::vector<uint8_t> BuildRequest(const Query& query,
                                           uint64_t partition_id,
                                           const MpqOptions& options);

  /// Builds all options.num_workers partition requests at once,
  /// byte-identical to per-partition BuildRequest calls but serializing
  /// the query and the option tail exactly once: each request is the
  /// shared prefix, its partition id, and the shared suffix spliced into
  /// one pre-sized buffer. This is the master's Phase-1 scatter path.
  static std::vector<std::vector<uint8_t>> BuildRequests(
      const Query& query, const MpqOptions& options);

  /// The master's Phase 3: decodes the per-partition responses (in
  /// parallel when options.finalize_threads allows) and final-prunes the
  /// partition-optimal plans into `MpqResult::best`. Fills the plan/stat
  /// fields only — timing and traffic are the caller's. Plan choice is
  /// byte-identical to a fully serial pass: the prune always merges the
  /// partitions in index order. Exposed for tests and benchmarks.
  static StatusOr<MpqResult> FinalizeResponses(
      const std::vector<std::vector<uint8_t>>& responses,
      const MpqOptions& options);

 private:
  MpqOptions options_;
};

}  // namespace mpqopt

#endif  // MPQOPT_MPQ_MPQ_H_
