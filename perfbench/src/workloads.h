// Copyright 2026 mpqopt authors.
//
// The four workloads of the benchmark of record and their seeded inputs.
// Everything here runs before the timed window: a workload is a fixed
// list of query classes plus per-client arrival streams, all derived
// from one seed, so the same seed always replays the same queries.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/query.h"
#include "mpq/mpq.h"
#include "sma/sma.h"

namespace perfbench {

/// Threads of the shared async backend: one per core of the 4-core
/// hosts the workloads were sized on.
inline constexpr int kBackendThreads = 4;

/// How one arrival is served.
enum class ArrivalKind : uint8_t {
  kMpq = 0,  ///< OptimizerService::Optimize (plan cache on)
  kSma = 1,  ///< SmaOptimize on the service's backend
};

/// One Steinbrunn query class: shape, size, plan space, objective, m.
struct QueryClass {
  ArrivalKind kind = ArrivalKind::kMpq;
  mpqopt::JoinGraphShape shape = mpqopt::JoinGraphShape::kChain;
  int tables = 0;
  mpqopt::PlanSpace space = mpqopt::PlanSpace::kLinear;
  mpqopt::Objective objective = mpqopt::Objective::kTime;
  uint64_t workers = 1;

  std::string Label() const;
};

/// A generated query with the class it was drawn from.
struct Item {
  mpqopt::Query query;
  int cls = 0;
};

/// Static description of a workload.
struct WorkloadSpec {
  std::string name;
  int clients = 1;
  /// Loopback mpqopt_worker processes (0 = in-process async backend
  /// with kBackendThreads threads).
  int rpc_workers = 0;
  /// Classes of fresh (distinct, cache-missing) arrivals, dealt
  /// round-robin so every seed sees the same mix.
  std::vector<QueryClass> fresh_classes;
  /// Every `sma_every`-th arrival (1-based) is an SMA query from
  /// sma_classes; 0 = no SMA in the window.
  int sma_every = 0;
  std::vector<QueryClass> sma_classes;
  /// serve_mix: size of the pre-warmed pool, the Zipf exponent of pool
  /// draws, and the share of arrivals that are fresh instead.
  int pool_size = 0;
  double zipf_exponent = 1.0;
  double fresh_share = 1.0;
  /// Probes between arrivals, for the metrics the window itself lacks:
  /// before each arrival the client replays this many of its own earlier
  /// misses as cache hits, and before every sma_probe_every-th arrival
  /// (0 = never) it runs one SMA query in-process (SmaProbeClasses).
  int hit_probes_per_arrival = 0;
  int sma_probe_every = 0;
  /// Upper bounds on fresh queries and arrivals one client can need per
  /// measured second; running out is reported as a benchmark error.
  int fresh_per_client_second = 0;
  int arrivals_per_client_second = 0;
};

/// The four workloads; `name` must be one of them.
const std::vector<WorkloadSpec>& AllWorkloads();
const WorkloadSpec* FindWorkload(const std::string& name);

/// MPQ options of a class (backend left null: the service supplies it).
mpqopt::MpqOptions MpqOptionsFor(const QueryClass& cls);
/// SMA options of a class (backend left null: the caller supplies it).
mpqopt::SmaOptions SmaOptionsFor(const QueryClass& cls);

/// Reference to one query of the inputs.
struct QueryRef {
  enum Source : uint8_t { kPool = 0, kFresh = 1, kSma = 2 };
  Source source = kFresh;
  uint32_t index = 0;
};

/// All inputs of one run, generated from the seed before anything is
/// timed.
struct Inputs {
  std::vector<Item> pool;
  std::vector<Item> fresh;  ///< distinct cache-missing queries
  std::vector<Item> sma;
  /// Per client: the arrival stream, consumed in order.
  std::vector<std::vector<QueryRef>> streams;
  /// Queries of the SMA probes, cycled through.
  std::vector<Item> sma_probes;
};

/// Generates the inputs of `spec` for a window of `seconds`.
Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed, int seconds);

/// The SMA classes of rpc_fanout and of the SMA probes (chain n=8-10,
/// m=4/8).
const std::vector<QueryClass>& SmaProbeClasses();

/// The class of a referenced query.
const QueryClass& ClassOf(const WorkloadSpec& spec, const Inputs& inputs,
                          QueryRef ref);
const Item& ItemOf(const Inputs& inputs, QueryRef ref);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
