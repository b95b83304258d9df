// Copyright 2026 mpqopt authors.
//
// perfbench_selftest — checks the benchmark's own arithmetic
// (bench_math.h): the tail rule, failure counting, the self-time ledger
// and its reconciliation, and the modeled_speedup formula. Exits 0 when
// every check holds; prints each failed check and exits 1 otherwise.
// perfbench/run.py runs it before every benchmark run.

#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_math.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest:%d: FAILED %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b, double tol = 1e-9) {
  return std::fabs(a - b) <= tol * std::max(1.0, std::fabs(b));
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n, already sorted
  return v;
}

void TestTailRule() {
  // The ladder tops out at p95, however many samples there are.
  Tail t = TailOf(Ramp(100000));
  CHECK(t.percentile == 95.0);
  CHECK(t.beyond == 5000);
  CHECK(t.samples == 100000);
  CHECK(Near(t.value, Percentile(Ramp(100000), 95)));
  // 999 samples: p95 leaves 49 beyond.
  t = TailOf(Ramp(999));
  CHECK(t.percentile == 95.0);
  CHECK(t.beyond == 49);
  // 200 samples: p95 leaves exactly 10.
  CHECK(TailOf(Ramp(200)).percentile == 95.0);
  // 199 samples: p95 leaves 9, p90 leaves 19.
  CHECK(TailOf(Ramp(199)).percentile == 90.0);
  // 40 samples: p75 leaves 10.
  CHECK(TailOf(Ramp(40)).percentile == 75.0);
  // 10 samples: nothing qualifies -> median fallback.
  t = TailOf(Ramp(10));
  CHECK(t.percentile == 50.0);
  CHECK(t.beyond == 5);
  CHECK(Near(t.value, 5.5));
  // The tail never reports a rung with fewer than 10 samples beyond,
  // except the documented median fallback.
  for (size_t n = 1; n < 3000; n += 7) {
    const Tail tail = TailOf(Ramp(n));
    CHECK(tail.beyond >= kTailMinBeyond || tail.percentile == 50.0);
  }
}

void TestFailureCounting() {
  FailureCount count;
  count.Add(true, true);
  count.Add(false, true);   // call failed
  count.Add(false, false);  // call failed: not also a check failure
  count.Add(true, false);   // wrong output
  CHECK(count.attempted == 4);
  CHECK(count.failed_calls == 2);
  CHECK(count.failed_checks == 1);
  CHECK(count.failed() == 3);
  CHECK(Near(count.ratio(), 0.75));
  FailureCount other;
  other.Add(true, true);
  count.Merge(other);
  CHECK(count.attempted == 5);
  CHECK(Near(count.ratio(), 0.6));
  count.MarkCheckFailed();  // the clean arrival failed a later check
  CHECK(count.failed() == 4);
  CHECK(count.attempted == 5);
  CHECK(FailureCount().ratio() == 0);
}

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

void TestSelfTimes() {
  // Sequential children: root 0..100, a 10..30, b 40..90 with a
  // grandchild c 50..60.
  std::vector<SpanRecord> spans = {
      {"service", -1, 0, 100},
      {"plancache.lookup", 0, 10, 30},
      {"cluster.round", 0, 40, 90},
      {"optimizer.partition", 2, 50, 60},
  };
  std::vector<double> self = AttributeSelfTimes(spans);
  CHECK(Near(self[0], 30));  // 0-10, 30-40, 90-100
  CHECK(Near(self[1], 20));
  CHECK(Near(self[2], 40));
  CHECK(Near(self[3], 10));
  CHECK(Near(Sum(self), 100));

  // Parallel children split overlapping time evenly: two partitions
  // 0..60 and 20..80 under a round 0..100.
  spans = {
      {"cluster.round", -1, 0, 100},
      {"optimizer.partition", 0, 0, 60},
      {"optimizer.partition", 0, 20, 80},
  };
  self = AttributeSelfTimes(spans);
  CHECK(Near(self[1], 20 + 20));  // alone 0-20, half of 20-60
  CHECK(Near(self[2], 20 + 20));  // half of 20-60, alone 60-80
  CHECK(Near(self[0], 20));
  CHECK(Near(Sum(self), 100));

  // A child overrunning its parent is clipped to it; a child starting
  // before it is clipped too. Reconciliation still holds.
  spans = {
      {"service", -1, 100, 200},
      {"mpq.serialize", 0, 90, 120},
      {"mpq.finalize", 0, 180, 260},
  };
  self = AttributeSelfTimes(spans);
  CHECK(Near(self[1], 20));
  CHECK(Near(self[2], 20));
  CHECK(Near(self[0], 60));
  CHECK(Near(Sum(self), 100));

  // Randomized reconciliation: Σ self == root duration for any tree.
  uint64_t x = 88172645463325252ull;
  const auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<SpanRecord> tree = {{"service", -1, 0, 1000}};
    const int n = 1 + static_cast<int>(next() % 20);
    for (int i = 0; i < n; ++i) {
      const int parent = static_cast<int>(next() % tree.size());
      const int64_t a = static_cast<int64_t>(next() % 1200) - 100;
      const int64_t b = a + static_cast<int64_t>(next() % 400);
      tree.push_back({"optimizer.partition", parent, a, b});
    }
    std::vector<double> s = AttributeSelfTimes(tree);
    CHECK(Near(Sum(s), 1000, 1e-9));
    for (double v : s) CHECK(v >= -1e-9);
  }
  CHECK(LayerOf("plancache.lookup") == "plancache");
  CHECK(LayerOf("service") == "service");
}

struct Vec {
  std::vector<double> v;
  int num_metrics() const { return static_cast<int>(v.size()); }
  double operator[](int i) const { return v[static_cast<size_t>(i)]; }
};

void TestCoverFactor() {
  const std::vector<Vec> frontier = {{{10, 1}}, {{1, 10}}};
  // Each reference point is covered by its closest frontier point.
  CHECK(Near(CoverFactor(frontier, {{{10, 1}}}), 1));
  CHECK(Near(CoverFactor(frontier, {{{5, 1}}}), 2));     // needs 10/5
  CHECK(Near(CoverFactor(frontier, {{{5, 5}}}), 2));     // 10/5 either way
  CHECK(Near(CoverFactor(frontier, {{{1, 2}, }, {{4, 1}}}), 5));
  CHECK(Near(CoverFactor(frontier, {}), 1));
  CHECK(std::isinf(CoverFactor(std::vector<Vec>{}, {{{1, 1}}})));
}

void TestModeledSpeedup() {
  ModelNetwork net;
  net.latency_s = 1e-5;
  net.bandwidth_bytes_per_s = 1e6;
  net.task_setup_s = 3e-5;
  ModeledQuery q;
  q.serial_cpu_s = 0.100;
  q.build_cpu_s = 0.001;
  q.finalize_cpu_s = 0.002;
  q.partition_cpu_s = {0.020, 0.030};
  q.request_bytes = {1000, 1000};
  q.response_bytes = {500, 2000};
  // slowest: max(1e-5+1e-3 + 0.020 + 1e-5+5e-4, 1e-5+1e-3 + 0.030 +
  // 1e-5+2e-3) = 0.03302; dispatch 2 * 3e-5.
  const double parallel = 0.001 + 6e-5 + 0.03302 + 0.002;
  CHECK(Near(ModeledParallelSeconds(q, net), parallel));
  CHECK(Near(ModeledSpeedup({q}, net), 0.100 / parallel));
  // Aggregation is total serial over total parallel, not a mean of
  // ratios.
  ModeledQuery big = q;
  big.serial_cpu_s = 1.0;
  big.partition_cpu_s = {0.3, 0.3};
  const double big_parallel = ModeledParallelSeconds(big, net);
  CHECK(Near(ModeledSpeedup({q, big}, net),
             1.1 / (parallel + big_parallel)));
  CHECK(ModeledSpeedup({}, net) == 0);

  CHECK(Near(BalancedFloor({1, 1, 1, 1, 1, 1, 1, 1}, 4), 2));
  CHECK(Near(BalancedFloor({5, 1, 1, 1}, 4), 5));
  CHECK(Near(BalancedFloor({2, 2}, 0), 4));
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestTailRule();
  perfbench::TestFailureCounting();
  perfbench::TestSelfTimes();
  perfbench::TestCoverFactor();
  perfbench::TestModeledSpeedup();
  if (perfbench::g_failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n",
                 perfbench::g_failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
