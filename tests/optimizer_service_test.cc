// Copyright 2026 mpqopt authors.
//
// OptimizerService correctness: many concurrent queries multiplexed onto
// one shared backend must return exactly the same plans, costs, and byte
// counts as the same queries run one-by-one through MpqOptimizer.

#include "service/optimizer_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "catalog/generator.h"
#include "cluster/async_batch_backend.h"
#include "tests/rpc_test_util.h"

namespace mpqopt {
namespace {

std::vector<Query> MakeQueries(int count, int tables, uint64_t seed) {
  GeneratorOptions opts;
  opts.shape = JoinGraphShape::kStar;
  QueryGenerator gen(opts, seed);
  std::vector<Query> queries;
  queries.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) queries.push_back(gen.Generate(tables));
  return queries;
}

struct Reference {
  double cost;
  uint64_t network_bytes;
  uint64_t network_messages;
};

std::vector<Reference> SequentialReference(const std::vector<Query>& queries,
                                           const MpqOptions& options) {
  std::vector<Reference> refs;
  for (const Query& q : queries) {
    MpqOptimizer optimizer(options);
    StatusOr<MpqResult> r = optimizer.Optimize(q);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    refs.push_back({r.value().arena.node(r.value().best[0]).cost.time(),
                    r.value().network_bytes, r.value().network_messages});
  }
  return refs;
}

class OptimizerServiceTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    if (GetParam() == BackendKind::kRpc) farm_.Start(2);
  }

  RpcWorkerFarm farm_;
};

TEST_P(OptimizerServiceTest, ConcurrentBatchMatchesSequentialRuns) {
  const int kQueries = 8;
  const std::vector<Query> queries = MakeQueries(kQueries, 10, 7001);
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = 16;
  const std::vector<Reference> refs = SequentialReference(queries, opts);

  ServiceOptions service_opts;
  service_opts.backend_kind = GetParam();
  service_opts.backend_threads = 2;
  service_opts.workers_addr = farm_.workers_addr();
  service_opts.dispatcher_threads = 4;
  OptimizerService service(service_opts);
  const BatchReport report = service.OptimizeBatch(queries, opts);

  ASSERT_EQ(report.results.size(), static_cast<size_t>(kQueries));
  for (int i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(report.results[i].ok())
        << report.results[i].status().ToString();
    const MpqResult& r = report.results[i].value();
    EXPECT_DOUBLE_EQ(r.arena.node(r.best[0]).cost.time(), refs[i].cost)
        << "query " << i;
    EXPECT_EQ(r.network_bytes, refs[i].network_bytes) << "query " << i;
    EXPECT_EQ(r.network_messages, refs[i].network_messages) << "query " << i;
    EXPECT_GE(report.latency_seconds[i], 0.0);
  }
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.queries_per_second, 0.0);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries_completed, static_cast<uint64_t>(kQueries));
  EXPECT_EQ(stats.queries_failed, 0u);
  EXPECT_GT(stats.total_simulated_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Backends, OptimizerServiceTest,
                         ::testing::Values(BackendKind::kAsyncBatch,
                                           BackendKind::kRpc),
                         [](const auto& info) {
                           return std::string(BackendKindName(info.param));
                         });

TEST(OptimizerServiceTest2, ManyThreadsCallOptimizeDirectly) {
  // Optimize() is the serving entry point: callers bring their own
  // threads and share the backend pool.
  const std::vector<Query> queries = MakeQueries(6, 9, 7002);
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = 8;
  const std::vector<Reference> refs = SequentialReference(queries, opts);

  ServiceOptions service_opts;
  service_opts.backend = std::make_shared<AsyncBatchBackend>(NetworkModel{}, 2);
  OptimizerService service(service_opts);
  std::vector<std::thread> callers;
  std::vector<double> costs(queries.size(), 0.0);
  for (size_t i = 0; i < queries.size(); ++i) {
    callers.emplace_back([&, i]() {
      StatusOr<MpqResult> r = service.Optimize(queries[i], opts);
      if (r.ok()) {
        costs[i] = r.value().arena.node(r.value().best[0]).cost.time();
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_DOUBLE_EQ(costs[i], refs[i].cost) << "query " << i;
  }
  EXPECT_EQ(service.stats().queries_completed, queries.size());
}

TEST(OptimizerServiceTest2, InvalidWorkerCountIsRejectedNotCrashed) {
  const std::vector<Query> queries = MakeQueries(1, 8, 7003);
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = 3;  // not a power of two
  ServiceOptions service_opts;
  service_opts.backend_threads = 1;
  OptimizerService service(service_opts);
  StatusOr<MpqResult> r = service.Optimize(queries[0], opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  opts.num_workers = 0;
  EXPECT_FALSE(service.Optimize(queries[0], opts).ok());

  // Exceeding the maximal parallelism for the query size is also an
  // InvalidArgument, not a crash in the partition decode.
  opts.num_workers = uint64_t{1} << 20;
  StatusOr<MpqResult> too_many = service.Optimize(queries[0], opts);
  EXPECT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.status().code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(service.stats().queries_failed, 3u);
  EXPECT_EQ(service.stats().queries_completed, 0u);
}

TEST(OptimizerServiceTest2, StatsSnapshotIsConsistentUnderConcurrency) {
  // stats() must return an internally consistent snapshot while serving
  // threads are mutating the counters: completed + failed never exceeds
  // the number of queries issued so far, and with the plan cache on,
  // hits + misses always equals completed + failed at quiescence.
  const std::vector<Query> queries = MakeQueries(4, 8, 7004);
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = 8;

  ServiceOptions service_opts;
  service_opts.backend_kind = BackendKind::kAsyncBatch;
  service_opts.backend_threads = 2;
  service_opts.enable_plan_cache = true;
  OptimizerService service(service_opts);

  std::atomic<bool> done{false};
  std::thread snapshotter([&]() {
    while (!done.load(std::memory_order_acquire)) {
      const ServiceStats snap = service.stats();
      EXPECT_LE(snap.cache_hits + snap.cache_misses,
                snap.queries_completed + snap.queries_failed);
      std::this_thread::yield();
    }
  });

  constexpr int kRounds = 3;
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&, t]() {
      for (int round = 0; round < kRounds; ++round) {
        EXPECT_TRUE(
            service.Optimize(queries[static_cast<size_t>(t)], opts).ok());
      }
    });
  }
  for (std::thread& t : callers) t.join();
  done.store(true, std::memory_order_release);
  snapshotter.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries_completed, 4u * kRounds);
  EXPECT_EQ(stats.queries_failed, 0u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.queries_completed);
  // Four distinct fingerprints, each single-flighted to one miss.
  EXPECT_EQ(stats.cache_misses, 4u);
  EXPECT_EQ(stats.cache_evictions, 0u);
}

TEST(OptimizerServiceTest2, EvictionCountersAreSplitByCause) {
  // ServiceStats no longer collapses evictions into one number: the
  // per-cause counters (capacity / TTL / invalidated) must sum to the
  // total and attribute each eviction to what actually triggered it.
  const std::vector<Query> queries = MakeQueries(2, 8, 7006);
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = 4;
  ServiceOptions service_opts;
  service_opts.backend_threads = 1;
  service_opts.enable_plan_cache = true;
  service_opts.plan_cache_shards = 1;
  OptimizerService service(service_opts);
  ASSERT_TRUE(service.Optimize(queries[0], opts).ok());
  ASSERT_TRUE(service.Optimize(queries[1], opts).ok());
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_evictions, 0u);

  // A statistics-epoch bump eagerly evicts both entries, attributed to
  // the invalidation cause — not to capacity or TTL.
  service.plan_cache()->BumpStatisticsEpoch();
  stats = service.stats();
  EXPECT_EQ(stats.cache_evictions_invalidated, 2u);
  EXPECT_EQ(stats.cache_evictions_capacity, 0u);
  EXPECT_EQ(stats.cache_evictions_ttl, 0u);
  EXPECT_EQ(stats.cache_evictions, stats.cache_evictions_capacity +
                                       stats.cache_evictions_ttl +
                                       stats.cache_evictions_invalidated);
}

TEST(OptimizerServiceTest2, CacheCountersStayZeroWhenDisabled) {
  const std::vector<Query> queries = MakeQueries(1, 8, 7005);
  MpqOptions opts;
  opts.num_workers = 4;
  ServiceOptions service_opts;
  service_opts.backend_threads = 1;
  OptimizerService service(service_opts);
  EXPECT_EQ(service.plan_cache(), nullptr);
  ASSERT_TRUE(service.Optimize(queries[0], opts).ok());
  ASSERT_TRUE(service.Optimize(queries[0], opts).ok());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.cache_evictions, 0u);
  EXPECT_EQ(stats.queries_completed, 2u);
}

TEST(OptimizerServiceTest2, EmptyBatch) {
  ServiceOptions service_opts;
  service_opts.backend_threads = 1;
  OptimizerService service(service_opts);
  const BatchReport report = service.OptimizeBatch({}, MpqOptions{});
  EXPECT_TRUE(report.results.empty());
  EXPECT_EQ(report.queries_per_second, 0.0);
}

}  // namespace
}  // namespace mpqopt
