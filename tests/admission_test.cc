// Copyright 2026 mpqopt authors.
//
// The admission subsystem (src/service/admission/): token-bucket
// arithmetic under an injected clock, the pure weighted-fair pick,
// queue-cap shedding and deadline expiry, the controller's
// quota-before-queue order and RAII ticket, and — end to end — the
// coalesced-scatter byte-identity contract: with scatter coalescing on,
// every backend must pick plans byte-identical to the uncoalesced run.
// The concurrent stress cases are TSan targets (this test is in the
// sanitizer matrix's test_regex lists).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "catalog/generator.h"
#include "common/serialize.h"
#include "plan/plan_serde.h"
#include "service/admission/admission_controller.h"
#include "service/admission/admission_queue.h"
#include "service/admission/quota_tracker.h"
#include "service/optimizer_service.h"
#include "tests/rpc_test_util.h"

namespace mpqopt {
namespace {

using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------- quota

/// A hand-cranked clock for deterministic refill arithmetic.
struct FakeClock {
  Clock::time_point now = Clock::time_point() + std::chrono::hours(1);
  std::function<Clock::time_point()> fn() {
    return [this]() { return now; };
  }
  void Advance(std::chrono::milliseconds d) { now += d; }
};

TEST(QuotaTrackerTest, TokenBucketArithmeticUnderInjectedClock) {
  FakeClock clock;
  QuotaTrackerOptions opts;
  opts.clock = clock.fn();
  QuotaTracker quota(opts);
  quota.SetQuota("t", /*rate_per_second=*/2.0, /*burst=*/4);

  // The bucket starts full: exactly `burst` admissions, then rejection.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(quota.TryAcquire("t").ok()) << "admission " << i;
  }
  const Status over = quota.TryAcquire("t");
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(over.message().find("'t'"), std::string::npos)
      << over.ToString();

  // 500 ms at 2 tokens/s refills exactly one token — one admission,
  // not two.
  clock.Advance(std::chrono::milliseconds(500));
  EXPECT_TRUE(quota.TryAcquire("t").ok());
  EXPECT_FALSE(quota.TryAcquire("t").ok());

  // A long rest refills to the burst cap, never beyond it.
  clock.Advance(std::chrono::milliseconds(60 * 1000));
  EXPECT_DOUBLE_EQ(quota.TokensForTesting("t"), 4.0);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(quota.TryAcquire("t").ok());
  EXPECT_FALSE(quota.TryAcquire("t").ok());
}

TEST(QuotaTrackerTest, DefaultTenantIsUnlimitedByDefault) {
  FakeClock clock;
  QuotaTrackerOptions opts;
  opts.clock = clock.fn();
  QuotaTracker quota(opts);
  // No quota configured anywhere: every tenant admits forever — the
  // pre-admission behavior the default configuration must preserve.
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(quota.TryAcquire("").ok());
    ASSERT_TRUE(quota.TryAcquire("anyone").ok());
  }
}

TEST(QuotaTrackerTest, DefaultRateAppliesToUnknownTenants) {
  FakeClock clock;
  QuotaTrackerOptions opts;
  opts.default_rate_per_second = 1.0;
  opts.default_burst = 2;
  opts.clock = clock.fn();
  QuotaTracker quota(opts);
  // Each tenant gets its own bucket at the default quota.
  EXPECT_TRUE(quota.TryAcquire("a").ok());
  EXPECT_TRUE(quota.TryAcquire("a").ok());
  EXPECT_FALSE(quota.TryAcquire("a").ok());
  EXPECT_TRUE(quota.TryAcquire("b").ok());  // b's bucket is untouched
  // An explicit SetQuota overrides the default (and refills the bucket).
  quota.SetQuota("a", /*rate_per_second=*/0, /*burst=*/1);
  EXPECT_TRUE(quota.TryAcquire("a").ok());  // now unlimited
}

// ------------------------------------------------- weighted-fair pick

TEST(AdmissionQueueTest, PickClassIsWeightedFairWithInteractiveTies) {
  const std::array<int, kNumPriorityClasses> weights = {8, 2, 1};
  const std::array<bool, kNumPriorityClasses> all = {true, true, true};
  std::array<uint64_t, kNumPriorityClasses> served = {0, 0, 0};

  // Simulate 22 grants with every class backlogged: each window of 11
  // grants divides 8 / 2 / 1 — the configured shares.
  std::array<int, kNumPriorityClasses> granted = {0, 0, 0};
  for (int i = 0; i < 22; ++i) {
    const int c = AdmissionQueue::PickClass(served, weights, all);
    ASSERT_GE(c, 0);
    ASSERT_LT(c, kNumPriorityClasses);
    ++served[static_cast<size_t>(c)];
    ++granted[static_cast<size_t>(c)];
  }
  EXPECT_EQ(granted[0], 16);  // interactive: 8 of every 11
  EXPECT_EQ(granted[1], 4);   // batch:       2 of every 11
  EXPECT_EQ(granted[2], 2);   // background:  1 of every 11

  // Ties break toward the more interactive class.
  served = {0, 0, 0};
  EXPECT_EQ(AdmissionQueue::PickClass(served, weights, all), 0);
  // Only one class backlogged: it wins regardless of its ratio.
  EXPECT_EQ(AdmissionQueue::PickClass({100, 0, 0}, weights,
                                      {false, false, true}),
            2);
  // Nothing queued anywhere.
  EXPECT_EQ(AdmissionQueue::PickClass(served, weights,
                                      {false, false, false}),
            -1);
}

// --------------------------------------------------- queue semantics

TEST(AdmissionQueueTest, ShedsDeterministicallyAtFullClassQueue) {
  AdmissionQueueOptions opts;
  opts.max_concurrent = 1;
  opts.queue_depth = 0;  // never queue: a busy slot sheds immediately
  AdmissionQueue queue(opts);

  ASSERT_TRUE(queue.Acquire(Priority::kInteractive).ok());
  const Status shed = queue.Acquire(Priority::kInteractive);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);

  AdmissionQueueStats stats = queue.stats();
  EXPECT_EQ(stats.admitted_immediately, 1u);
  EXPECT_EQ(stats.shed_queue_full, 1u);
  EXPECT_EQ(stats.running_now, 1u);

  // Shedding is per class: a different class still sheds on ITS queue,
  // and releasing the slot restores immediate admission.
  EXPECT_EQ(queue.Acquire(Priority::kBackground).code(),
            StatusCode::kResourceExhausted);
  queue.Release();
  EXPECT_TRUE(queue.Acquire(Priority::kBackground).ok());
  queue.Release();
  stats = queue.stats();
  EXPECT_EQ(stats.running_now, 0u);
  EXPECT_EQ(stats.admitted_by_class[0], 1u);
  EXPECT_EQ(stats.admitted_by_class[2], 1u);
}

TEST(AdmissionQueueTest, QueuedRequestExpiresWithDeadlineExceeded) {
  AdmissionQueueOptions opts;
  opts.max_concurrent = 1;
  opts.queue_depth = 4;
  opts.queue_timeout_ms = 50;
  AdmissionQueue queue(opts);

  ASSERT_TRUE(queue.Acquire(Priority::kBatch).ok());  // hold the slot
  const Clock::time_point t0 = Clock::now();
  const Status expired = queue.Acquire(Priority::kBatch);
  const double waited_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(expired.message().find("batch"), std::string::npos)
      << expired.ToString();
  EXPECT_GE(waited_ms, 45.0);  // it actually waited out the deadline

  AdmissionQueueStats stats = queue.stats();
  EXPECT_EQ(stats.timed_out, 1u);
  EXPECT_EQ(stats.queued_now, 0u);  // the expired waiter left the queue

  // The slot was never leaked to the expired waiter.
  queue.Release();
  EXPECT_TRUE(queue.Acquire(Priority::kBatch).ok());
  queue.Release();
}

TEST(AdmissionQueueTest, InteractiveOvertakesEarlierBackgroundInQueue) {
  AdmissionQueueOptions opts;
  opts.max_concurrent = 1;
  AdmissionQueue queue(opts);
  ASSERT_TRUE(queue.Acquire(Priority::kInteractive).ok());  // hold slot

  // Queue a background waiter FIRST, then an interactive one. When the
  // slot frees, weighted-fair picks interactive despite its later
  // arrival (both classes start at served 0; ties prefer interactive).
  std::atomic<int> order{0};
  std::atomic<int> background_rank{-1};
  std::atomic<int> interactive_rank{-1};
  std::thread background([&]() {
    ASSERT_TRUE(queue.Acquire(Priority::kBackground).ok());
    background_rank = order.fetch_add(1);
    queue.Release();
  });
  while (queue.stats().queued_now < 1) std::this_thread::yield();
  std::thread interactive([&]() {
    ASSERT_TRUE(queue.Acquire(Priority::kInteractive).ok());
    interactive_rank = order.fetch_add(1);
    queue.Release();
  });
  while (queue.stats().queued_now < 2) std::this_thread::yield();

  queue.Release();
  background.join();
  interactive.join();
  EXPECT_EQ(interactive_rank.load(), 0);
  EXPECT_EQ(background_rank.load(), 1);
  const AdmissionQueueStats stats = queue.stats();
  EXPECT_EQ(stats.admitted_from_queue, 2u);
  EXPECT_EQ(stats.running_now, 0u);
}

// ----------------------------------------------------- controller

TEST(AdmissionControllerTest, QuotaIsCheckedBeforeTheQueue) {
  FakeClock clock;
  AdmissionOptions opts;
  opts.max_concurrent = 8;  // slots are plentiful; quota must still bite
  opts.clock = clock.fn();
  AdmissionController controller(opts);
  controller.SetQuota("metered", /*rate_per_second=*/1, /*burst=*/1);

  RequestContext ctx;
  ctx.tenant = "metered";
  StatusOr<AdmissionController::Ticket> first = controller.Admit(ctx);
  ASSERT_TRUE(first.ok());
  StatusOr<AdmissionController::Ticket> second = controller.Admit(ctx);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);

  // The default tenant (2-arg Optimize) is untouched by another
  // tenant's quota.
  EXPECT_TRUE(controller.Admit(RequestContext()).ok());

  const AdmissionStats stats = controller.stats();
  EXPECT_EQ(stats.rejected_quota, 1u);
  EXPECT_EQ(stats.admitted, 2u);
}

TEST(AdmissionControllerTest, TicketReleasesSlotOnDestruction) {
  AdmissionOptions opts;
  opts.max_concurrent = 1;
  opts.queue_depth = 0;
  AdmissionController controller(opts);
  {
    StatusOr<AdmissionController::Ticket> ticket =
        controller.Admit(RequestContext());
    ASSERT_TRUE(ticket.ok());
    // The slot is held: a second request sheds.
    EXPECT_FALSE(controller.Admit(RequestContext()).ok());
    // Moving the ticket moves the slot, not releases it.
    AdmissionController::Ticket moved = std::move(ticket).value();
    EXPECT_FALSE(controller.Admit(RequestContext()).ok());
  }
  // Scope exit destroyed the ticket: the slot is free again.
  EXPECT_TRUE(controller.Admit(RequestContext()).ok());
  EXPECT_EQ(controller.stats().running_now, 0u);
}

/// TSan target: admissions, rejections, and releases from many threads
/// must race cleanly, and the books must balance afterwards.
TEST(AdmissionControllerTest, ConcurrentAdmitStressBalancesTheBooks) {
  AdmissionOptions opts;
  opts.max_concurrent = 4;
  opts.queue_depth = 8;
  opts.queue_timeout_ms = 2000;
  AdmissionController controller(opts);
  controller.SetQuota("metered", /*rate_per_second=*/500, /*burst=*/32);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::atomic<uint64_t> ok_count{0};
  std::atomic<uint64_t> rejected{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      RequestContext ctx;
      ctx.tenant = (t % 2 == 0) ? "metered" : "";
      ctx.priority = static_cast<Priority>(t % kNumPriorityClasses);
      for (int i = 0; i < kPerThread; ++i) {
        StatusOr<AdmissionController::Ticket> ticket =
            controller.Admit(ctx);
        if (ticket.ok()) {
          ++ok_count;
          std::this_thread::yield();  // hold the slot across a schedule
        } else {
          ASSERT_TRUE(ticket.status().code() ==
                          StatusCode::kResourceExhausted ||
                      ticket.status().code() ==
                          StatusCode::kDeadlineExceeded)
              << ticket.status().ToString();
          ++rejected;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const AdmissionStats stats = controller.stats();
  EXPECT_EQ(ok_count + rejected, uint64_t{kThreads * kPerThread});
  EXPECT_EQ(stats.admitted, ok_count);
  EXPECT_EQ(stats.rejected_quota + stats.rejected_queue + stats.timed_out,
            rejected);
  EXPECT_EQ(stats.admitted_by_class[0] + stats.admitted_by_class[1] +
                stats.admitted_by_class[2],
            ok_count);
  EXPECT_EQ(stats.running_now, 0u);
  EXPECT_EQ(stats.queued_now, 0u);
}

// ------------------------------------- coalesced-scatter byte identity

std::vector<Query> MakeQueries(int count, int tables, uint64_t seed) {
  GeneratorOptions gen_opts;
  gen_opts.shape = JoinGraphShape::kStar;
  QueryGenerator gen(gen_opts, seed);
  std::vector<Query> queries;
  queries.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) queries.push_back(gen.Generate(tables));
  return queries;
}

/// Serialized plan-set bytes of every query through a service on
/// `kind`, with scatter coalescing on or off.
std::vector<std::vector<uint8_t>> PlansOn(BackendKind kind,
                                          const std::string& workers_addr,
                                          bool coalesce,
                                          const std::vector<Query>& queries,
                                          const MpqOptions& opts) {
  ServiceOptions service_opts;
  service_opts.backend_kind = kind;
  service_opts.backend_threads = 2;
  service_opts.workers_addr = workers_addr;
  service_opts.coalesce_scatter = coalesce;
  service_opts.dispatcher_threads = 4;
  OptimizerService service(service_opts);
  std::vector<std::vector<uint8_t>> plans;
  const BatchReport report = service.OptimizeBatch(queries, opts);
  for (const StatusOr<MpqResult>& r : report.results) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return plans;
    ByteWriter writer;
    SerializePlanSet(r.value().arena, r.value().best, &writer);
    plans.push_back(writer.buffer());
  }
  if (kind == BackendKind::kRpc && coalesce) {
    // The coalesced path actually ran: batch envelopes were sent and
    // carried more than one request each on average.
    const ServiceStats stats = service.stats();
    EXPECT_GT(stats.scatter_batches, 0u);
    EXPECT_GT(stats.tasks_coalesced, stats.scatter_batches);
  }
  return plans;
}

class CoalesceIdentityTest : public ::testing::TestWithParam<BackendKind> {};

TEST_P(CoalesceIdentityTest, CoalescedPlansAreByteIdenticalToUncoalesced) {
  const std::vector<Query> queries = MakeQueries(6, 9, 20260808);
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = 8;  // several subtasks per physical worker per round

  RpcWorkerFarm farm;
  std::string workers_addr;
  if (GetParam() == BackendKind::kRpc) {
    farm.Start(2);
    workers_addr = farm.workers_addr();
  }
  const std::vector<std::vector<uint8_t>> off =
      PlansOn(GetParam(), workers_addr, /*coalesce=*/false, queries, opts);
  const std::vector<std::vector<uint8_t>> on =
      PlansOn(GetParam(), workers_addr, /*coalesce=*/true, queries, opts);
  ASSERT_EQ(off.size(), queries.size());
  ASSERT_EQ(on.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(off[i], on[i]) << "plan bytes diverged for query " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, CoalesceIdentityTest,
                         ::testing::Values(BackendKind::kAsyncBatch,
                                           BackendKind::kRpc),
                         [](const auto& info) {
                           return std::string(BackendKindName(info.param));
                         });

/// TSan target for the per-worker batcher: many dispatchers coalescing
/// into shared per-worker queues concurrently, with admission on top.
TEST(CoalesceIdentityTest, ConcurrentCoalescedRpcUnderAdmission) {
  const std::vector<Query> queries = MakeQueries(8, 8, 42);
  MpqOptions opts;
  opts.space = PlanSpace::kLinear;
  opts.num_workers = 8;

  RpcWorkerFarm farm;
  farm.Start(2);
  ServiceOptions service_opts;
  service_opts.backend_kind = BackendKind::kRpc;
  service_opts.workers_addr = farm.workers_addr();
  service_opts.coalesce_scatter = true;
  service_opts.dispatcher_threads = 4;
  service_opts.enable_admission = true;
  service_opts.admission.max_concurrent = 3;
  service_opts.admission.queue_depth = 16;
  OptimizerService service(service_opts);

  const BatchReport report = service.OptimizeBatch(queries, opts);
  for (const StatusOr<MpqResult>& r : report.results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries_completed, queries.size());
  EXPECT_EQ(stats.admitted, queries.size());
  EXPECT_GT(stats.scatter_batches, 0u);
  EXPECT_EQ(stats.admission_running_now, 0u);
}

}  // namespace
}  // namespace mpqopt
