// Copyright 2026 mpqopt authors.

#include "sma/sma.h"

#include <gtest/gtest.h>

#include "catalog/generator.h"
#include "common/serialize.h"
#include "mpq/mpq.h"
#include "optimizer/pruning.h"
#include "plan/plan_serde.h"
#include "plan/plan_validator.h"
#include "tests/rpc_test_util.h"

namespace mpqopt {
namespace {

Query RandomQuery(int n, uint64_t seed) {
  GeneratorOptions opts;
  opts.shape = JoinGraphShape::kStar;
  QueryGenerator gen(opts, seed);
  return gen.Generate(n);
}

SmaOptions Options(PlanSpace space, uint64_t workers) {
  SmaOptions opts;
  opts.space = space;
  opts.num_workers = workers;
  return opts;
}

/// The canonical wire bytes of a result's winning plan(s).
std::vector<uint8_t> PlanBytes(const SmaResult& result) {
  ByteWriter writer;
  SerializePlanSet(result.arena, result.best, &writer);
  return writer.Release();
}

// SMA's replicas run through the session protocol, so the hosting choice
// — including REMOTE replicas in mpqopt_worker processes over real
// sockets — must be invisible: plan cost, rounds, and the network series
// byte-for-byte identical to the default in-process run. This is the
// acceptance gate for stateful remote workers; the rpc parameter
// self-hosts loopback worker subprocesses and does NOT skip.
class SmaBackendTest : public ::testing::TestWithParam<BackendKind> {
 protected:
  void SetUp() override {
    if (GetParam() == BackendKind::kRpc) farm_.Start(2);
  }

  std::shared_ptr<ExecutionBackend> MakeTestBackend() {
    BackendOptions options;
    options.max_threads = 2;
    options.workers_addr = farm_.workers_addr();
    StatusOr<std::shared_ptr<ExecutionBackend>> backend =
        MakeBackend(GetParam(), options);
    MPQOPT_CHECK(backend.ok());
    return std::move(backend).value();
  }

  RpcWorkerFarm farm_;
};

TEST_P(SmaBackendTest, MatchesDefaultBackendByteForByte) {
  const Query q = RandomQuery(9, 301);
  SmaOptions base = Options(PlanSpace::kLinear, 3);
  StatusOr<SmaResult> reference = SmaOptimize(q, base);
  ASSERT_TRUE(reference.ok());

  SmaOptions with_backend = base;
  with_backend.backend = MakeTestBackend();
  StatusOr<SmaResult> result = SmaOptimize(q, with_backend);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(PlanBytes(result.value()), PlanBytes(reference.value()));
  EXPECT_DOUBLE_EQ(
      result.value().arena.node(result.value().best[0]).cost.time(),
      reference.value().arena.node(reference.value().best[0]).cost.time());
  EXPECT_EQ(result.value().rounds, reference.value().rounds);
  EXPECT_EQ(result.value().network_bytes, reference.value().network_bytes);
  EXPECT_EQ(result.value().network_messages,
            reference.value().network_messages);
  EXPECT_EQ(result.value().max_worker_memo_sets,
            reference.value().max_worker_memo_sets);
}

TEST_P(SmaBackendTest, MultiObjectiveFrontierMatchesByteForByte) {
  const Query q = RandomQuery(7, 303);
  SmaOptions base = Options(PlanSpace::kLinear, 4);
  base.objective = Objective::kTimeAndBuffer;
  base.alpha = 1.5;
  StatusOr<SmaResult> reference = SmaOptimize(q, base);
  ASSERT_TRUE(reference.ok());

  SmaOptions with_backend = base;
  with_backend.backend = MakeTestBackend();
  StatusOr<SmaResult> result = SmaOptimize(q, with_backend);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_EQ(result.value().best.size(), reference.value().best.size());
  EXPECT_EQ(PlanBytes(result.value()), PlanBytes(reference.value()));
  EXPECT_EQ(result.value().network_bytes, reference.value().network_bytes);
  EXPECT_EQ(result.value().network_messages,
            reference.value().network_messages);
}

TEST_P(SmaBackendTest, BushySpaceMatchesSerialOptimum) {
  const Query q = RandomQuery(7, 305);
  DpConfig config;
  config.space = PlanSpace::kBushy;
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());
  SmaOptions opts = Options(PlanSpace::kBushy, 3);
  opts.backend = MakeTestBackend();
  StatusOr<SmaResult> result = SmaOptimize(q, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_DOUBLE_EQ(
      result.value().arena.node(result.value().best[0]).cost.time(),
      serial.value().arena.node(serial.value().best[0]).cost.time());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SmaBackendTest,
                         ::testing::Values(BackendKind::kAsyncBatch,
                                           BackendKind::kRpc),
                         [](const auto& info) {
                           return std::string(BackendKindName(info.param));
                         });

TEST(SmaTest, FindsSerialOptimumLinear) {
  const Query q = RandomQuery(8, 61);
  DpConfig config;
  config.space = PlanSpace::kLinear;
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());
  for (uint64_t m : {1u, 2u, 3u, 7u}) {
    StatusOr<SmaResult> result = SmaOptimize(q, Options(PlanSpace::kLinear, m));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_DOUBLE_EQ(
        result.value().arena.node(result.value().best[0]).cost.time(),
        serial.value().arena.node(serial.value().best[0]).cost.time())
        << m;
  }
}

TEST(SmaTest, FindsSerialOptimumBushy) {
  const Query q = RandomQuery(7, 63);
  DpConfig config;
  config.space = PlanSpace::kBushy;
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());
  StatusOr<SmaResult> result = SmaOptimize(q, Options(PlanSpace::kBushy, 4));
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(
      result.value().arena.node(result.value().best[0]).cost.time(),
      serial.value().arena.node(serial.value().best[0]).cost.time());
}

TEST(SmaTest, AgreesWithMpq) {
  const Query q = RandomQuery(10, 65);
  MpqOptions mpq_opts;
  mpq_opts.space = PlanSpace::kLinear;
  mpq_opts.num_workers = 8;
  MpqOptimizer mpq(mpq_opts);
  StatusOr<MpqResult> mpq_result = mpq.Optimize(q);
  StatusOr<SmaResult> sma_result =
      SmaOptimize(q, Options(PlanSpace::kLinear, 8));
  ASSERT_TRUE(mpq_result.ok() && sma_result.ok());
  EXPECT_DOUBLE_EQ(
      mpq_result.value().arena.node(mpq_result.value().best[0]).cost.time(),
      sma_result.value().arena.node(sma_result.value().best[0]).cost.time());
}

TEST(SmaTest, PlanValidates) {
  const Query q = RandomQuery(8, 67);
  StatusOr<SmaResult> result = SmaOptimize(q, Options(PlanSpace::kLinear, 4));
  ASSERT_TRUE(result.ok());
  const CostModel model(Objective::kTime);
  PlanValidationOptions vopts;
  vopts.require_left_deep = true;
  EXPECT_TRUE(ValidatePlan(result.value().arena, result.value().best[0], q,
                           model, vopts)
                  .ok());
}

TEST(SmaTest, RoundsEqualLevels) {
  const Query q = RandomQuery(8, 69);
  StatusOr<SmaResult> result = SmaOptimize(q, Options(PlanSpace::kLinear, 4));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().rounds, 7);  // levels 2..8
}

TEST(SmaTest, NetworkGrowsWithWorkers) {
  // The broadcastmakes SMA traffic grow linearly in m on top of an
  // exponential-in-n base — the separation from MPQ in Figure 1.
  const Query q = RandomQuery(10, 71);
  uint64_t bytes1 = 0, bytes8 = 0;
  {
    StatusOr<SmaResult> r = SmaOptimize(q, Options(PlanSpace::kLinear, 1));
    ASSERT_TRUE(r.ok());
    bytes1 = r.value().network_bytes;
  }
  {
    StatusOr<SmaResult> r = SmaOptimize(q, Options(PlanSpace::kLinear, 8));
    ASSERT_TRUE(r.ok());
    bytes8 = r.value().network_bytes;
  }
  EXPECT_GT(bytes8, bytes1 * 4);
}

TEST(SmaTest, NetworkGrowsExponentiallyWithQuerySize) {
  uint64_t previous = 0;
  for (int n : {8, 10, 12}) {
    const Query q = RandomQuery(n, 73);
    StatusOr<SmaResult> r = SmaOptimize(q, Options(PlanSpace::kLinear, 4));
    ASSERT_TRUE(r.ok());
    if (previous > 0) {
      EXPECT_GT(r.value().network_bytes, 2 * previous);
    }
    previous = r.value().network_bytes;
  }
}

TEST(SmaTest, SmaTrafficExceedsMpqTraffic) {
  const Query q = RandomQuery(12, 75);
  StatusOr<SmaResult> sma = SmaOptimize(q, Options(PlanSpace::kLinear, 8));
  MpqOptions mpq_opts;
  mpq_opts.space = PlanSpace::kLinear;
  mpq_opts.num_workers = 8;
  MpqOptimizer mpq(mpq_opts);
  StatusOr<MpqResult> mpq_result = mpq.Optimize(q);
  ASSERT_TRUE(sma.ok() && mpq_result.ok());
  // The paper reports SMA needing orders of magnitude more bytes.
  EXPECT_GT(sma.value().network_bytes,
            mpq_result.value().network_bytes * 10);
}

TEST(SmaTest, MemoSizeIndependentOfWorkers) {
  const Query q = RandomQuery(10, 77);
  for (uint64_t m : {1u, 4u, 16u}) {
    StatusOr<SmaResult> r = SmaOptimize(q, Options(PlanSpace::kLinear, m));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().max_worker_memo_sets, 1 << 10);
  }
}

TEST(SmaTest, RejectsOversizedQuery) {
  const Query q = RandomQuery(12, 79);
  SmaOptions opts = Options(PlanSpace::kLinear, 2);
  opts.max_tables = 10;
  EXPECT_EQ(SmaOptimize(q, opts).status().code(), StatusCode::kOutOfRange);
}

TEST(SmaTest, SingleTableQuery) {
  const Query q = RandomQuery(1, 81);
  StatusOr<SmaResult> r = SmaOptimize(q, Options(PlanSpace::kLinear, 2));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().arena.node(r.value().best[0]).IsScan());
  EXPECT_EQ(r.value().rounds, 0);
}

TEST(SmaTest, MultiObjectiveFrontierCoversSerial) {
  const Query q = RandomQuery(7, 83);
  DpConfig config;
  config.space = PlanSpace::kLinear;
  config.objective = Objective::kTimeAndBuffer;
  config.alpha = 1.0;
  StatusOr<DpResult> serial = OptimizeSerial(q, config);
  ASSERT_TRUE(serial.ok());

  SmaOptions opts = Options(PlanSpace::kLinear, 4);
  opts.objective = Objective::kTimeAndBuffer;
  opts.alpha = 1.0;
  StatusOr<SmaResult> result = SmaOptimize(q, opts);
  ASSERT_TRUE(result.ok());

  std::vector<CostVector> sma_frontier, serial_frontier;
  for (PlanId id : result.value().best) {
    sma_frontier.push_back(result.value().arena.node(id).cost);
  }
  for (PlanId id : serial.value().best) {
    serial_frontier.push_back(serial.value().arena.node(id).cost);
  }
  EXPECT_TRUE(AlphaCovers(sma_frontier, serial_frontier, 1.0 + 1e-12));
  EXPECT_TRUE(AlphaCovers(serial_frontier, sma_frontier, 1.0 + 1e-12));
}

}  // namespace
}  // namespace mpqopt
