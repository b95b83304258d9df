// Copyright 2026 mpqopt authors.
//
// perfbench_driver — runs one workload of the benchmark of record.
//
//   perfbench_driver --workload=cold_large --seed=1 --seconds=10 --trace=0
//       --worker-bin=PATH [--source-rev=REV] [--spans-out=PATH]
//       [--log-dir=DIR]
//
// Order of a run: generate every input from the seed; set up the rig
// (service, backend, worker farm, pool warm-up) several times and keep
// the last; drive the closed-loop clients, with their probes, for
// --seconds; then, outside the window, run the modeled-speedup pass and
// the reference checks. --trace=0 prints the end-to-end metrics; --trace=1
// serves every other arrival through the traced path (traced.h) and
// prints the per-layer metrics and the reconciled ledger instead. The
// last stdout line is the JSON result; the exit code is nonzero when any
// output check failed. perfbench/README.md documents every metric.

#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "optimizer/dp.h"
#include "optimizer/pruning.h"
#include "partition/constraints.h"
#include "plan/plan_serde.h"
#include "plan/plan_validator.h"
#include "service/optimizer_service.h"
#include "traced.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using mpqopt::CostVector;
using mpqopt::MpqOptimizer;
using mpqopt::MpqOptions;
using mpqopt::MpqResult;
using mpqopt::Objective;
using mpqopt::PlanArena;
using mpqopt::PlanId;
using mpqopt::Query;
using mpqopt::SmaOptions;
using mpqopt::SmaResult;
using mpqopt::StatusOr;

/// Set-up repeats at least kMinSetupRepetitions times and until set-ups
/// and teardowns have taken kSetupBudgetSeconds (at most
/// kMaxSetupRepetitions). A cold workload's set-up takes about 0.15 ms,
/// so its median is taken over thousands of set-ups; serve_mix's warms a
/// pool for about a second and is repeated kMinSetupRepetitions times.
constexpr int kMinSetupRepetitions = 5;
constexpr int kMaxSetupRepetitions = 4000;
constexpr double kSetupBudgetSeconds = 1.0;
constexpr size_t kCoverSample = 45;
/// Misses per client that the hit probes replay.
constexpr size_t kHitProbeQueries = 200;
constexpr size_t kModeledSample = 16;
/// Time spent measuring modeled-speedup rounds at each of the three
/// points of a run (at least one round each).
constexpr double kModeledBudgetSeconds = 0.8;
constexpr size_t kPlanCacheBytes = size_t{64} << 20;

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string worker_bin;
  std::string source_rev = "unknown";
  std::string spans_out;
  std::string log_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "bad argument: %s\n", argv[i]);
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (key == "trace") {
      args->trace = value == "1";
    } else if (key == "worker-bin") {
      args->worker_bin = value;
    } else if (key == "source-rev") {
      args->source_rev = value;
    } else if (key == "spans-out") {
      args->spans_out = value;
    } else if (key == "log-dir") {
      args->log_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag: --%s\n", key.c_str());
      return false;
    }
  }
  if (args->seconds < 1) {
    std::fprintf(stderr, "--seconds must be >= 1\n");
    return false;
  }
  return true;
}

// ---------------------------------------------------------- worker farm

/// Loopback mpqopt_worker processes. Stop() terminates each one and
/// waits for it; the destructor stops whatever is still running.
class WorkerFarm {
 public:
  WorkerFarm() = default;
  WorkerFarm(const WorkerFarm&) = delete;
  WorkerFarm& operator=(const WorkerFarm&) = delete;
  ~WorkerFarm() { Stop(); }

  mpqopt::Status Start(int count, const std::string& binary,
                       const std::string& log_dir) {
    for (int i = 0; i < count; ++i) {
      mpqopt::Status s = SpawnOne(binary, log_dir, i);
      if (!s.ok()) return s;
    }
    return mpqopt::Status::OK();
  }

  std::string Addresses() const {
    std::string joined;
    for (const std::string& endpoint : endpoints_) {
      if (!joined.empty()) joined += ",";
      joined += endpoint;
    }
    return joined;
  }

  void Stop() {
    for (pid_t pid : pids_) ::kill(pid, SIGTERM);
    for (pid_t pid : pids_) {
      // Graceful drain first; a worker still alive after 5 s is killed.
      bool reaped = false;
      for (int waited_ms = 0; waited_ms < 5000; waited_ms += 10) {
        if (::waitpid(pid, nullptr, WNOHANG) == pid) {
          reaped = true;
          break;
        }
        ::usleep(10000);
      }
      if (!reaped) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
    }
    pids_.clear();
    endpoints_.clear();
  }

 private:
  mpqopt::Status SpawnOne(const std::string& binary,
                          const std::string& log_dir, int index) {
    int out[2];
    if (::pipe(out) != 0) return mpqopt::Status::Internal("pipe failed");
    const std::string log_path =
        log_dir.empty() ? "/dev/null"
                        : log_dir + "/worker-" + std::to_string(index) +
                              ".log";
    const pid_t pid = ::fork();
    if (pid < 0) return mpqopt::Status::Internal("fork failed");
    if (pid == 0) {
      ::close(out[0]);
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[1]);
      const int log_fd =
          ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log_fd >= 0) {
        ::dup2(log_fd, STDERR_FILENO);
        ::close(log_fd);
      }
      const char* argv[] = {binary.c_str(), "--listen=127.0.0.1:0", nullptr};
      ::execv(binary.c_str(), const_cast<char* const*>(argv));
      std::fprintf(stderr, "exec %s: %s\n", binary.c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
    ::close(out[1]);
    pids_.push_back(pid);
    FILE* stream = ::fdopen(out[0], "r");
    int port = 0;
    const int matched =
        stream != nullptr ? std::fscanf(stream, "LISTENING %d", &port) : 0;
    if (stream != nullptr) std::fclose(stream);
    if (matched != 1 || port <= 0) {
      return mpqopt::Status::Internal("worker " + binary +
                                      " did not report a port");
    }
    endpoints_.push_back("127.0.0.1:" + std::to_string(port));
    return mpqopt::Status::OK();
  }

  std::vector<pid_t> pids_;
  std::vector<std::string> endpoints_;
};

// --------------------------------------------------------------- checks

std::vector<uint8_t> PlanBytes(const PlanArena& arena,
                               const std::vector<PlanId>& best) {
  mpqopt::ByteWriter writer;
  mpqopt::SerializePlanSet(arena, best, &writer);
  return writer.Release();
}

std::vector<CostVector> Costs(const PlanArena& arena,
                              const std::vector<PlanId>& best) {
  std::vector<CostVector> costs;
  costs.reserve(best.size());
  for (PlanId id : best) costs.push_back(arena.node(id).cost);
  return costs;
}

/// Every returned plan passes ValidatePlan; single-objective answers are
/// exactly one plan.
bool ValidPlans(const PlanArena& arena, const std::vector<PlanId>& best,
                const Query& query, const QueryClass& cls) {
  if (best.empty()) return false;
  if (cls.objective == Objective::kTime && best.size() != 1) return false;
  const mpqopt::CostModel model(cls.objective);
  mpqopt::PlanValidationOptions opts;
  opts.require_left_deep = cls.space == mpqopt::PlanSpace::kLinear;
  for (PlanId id : best) {
    if (!mpqopt::ValidatePlan(arena, id, query, model, opts).ok()) {
      return false;
    }
  }
  return true;
}

/// An answer whose reference comparison runs after the window.
struct CheckRecord {
  const Query* query = nullptr;
  QueryClass cls;
  std::vector<CostVector> costs;
  /// rpc answers: the plan bytes, compared with the in-process answer.
  std::vector<uint8_t> remote_bytes;
  bool compare_in_process = false;
  uint64_t plans_costed = 0;         ///< MPQ: Σ over partitions
  uint64_t serial_plans_costed = 0;  ///< filled by the reference pass
  /// Pareto answers: whether this one is among the first kCoverSample,
  /// whose query also gets the alpha = 1 exactness check, and the factor
  /// by which the alpha = 10 answer covers the serial frontier (reported,
  /// not a failure; see README "Pareto answers").
  bool cover_sample = false;
  double serial_cover_factor = 1.0;
  bool ok = true;  ///< cleared by a reference mismatch
  std::string why;  ///< what the mismatch was
};

mpqopt::DpConfig SerialConfig(const QueryClass& cls) {
  mpqopt::DpConfig config;
  config.space = cls.space;
  config.objective = cls.objective;
  config.alpha = 10.0;
  return config;
}

/// The in-process MPQ answer, computed through the public calls alone.
StatusOr<MpqResult> InProcessMpq(const Query& query, const MpqOptions& opts) {
  std::vector<std::vector<uint8_t>> responses;
  for (const std::vector<uint8_t>& request :
       MpqOptimizer::BuildRequests(query, opts)) {
    StatusOr<std::vector<uint8_t>> response = MpqOptimizer::WorkerMain(request);
    if (!response.ok()) return response.status();
    responses.push_back(std::move(response).value());
  }
  return MpqOptimizer::FinalizeResponses(responses, opts);
}

/// The final prune of MPQ's Pareto mode, recomputed from the public
/// partition DP: every partition's frontier (RunPartitionDp under the
/// partition's constraints, exactly what WorkerMain runs) merged with
/// ParetoInsert in partition order.
StatusOr<std::vector<CostVector>> MergedPartitionFrontier(
    const Query& query, const QueryClass& cls) {
  std::vector<CostVector> merged;
  const auto identity = [](const CostVector& c) -> const CostVector& {
    return c;
  };
  for (uint64_t part = 0; part < cls.workers; ++part) {
    StatusOr<mpqopt::ConstraintSet> constraints =
        mpqopt::ConstraintSet::FromPartitionId(query.num_tables(), cls.space,
                                               part, cls.workers);
    if (!constraints.ok()) return constraints.status();
    StatusOr<mpqopt::DpResult> dp = mpqopt::RunPartitionDp(
        query, constraints.value(), SerialConfig(cls));
    if (!dp.ok()) return dp.status();
    for (const CostVector& cost : Costs(dp.value().arena, dp.value().best)) {
      mpqopt::ParetoInsert(&merged, cost, identity, 10.0);
    }
  }
  return merged;
}

/// The exactness theorem in Pareto mode. With alpha = 1 every prune is
/// exact, so MPQ's frontier for `query` and OptimizeSerial's must cover
/// each other with factor 1, up to rounding. Returns what differs, or an
/// empty string.
std::string ExactParetoMismatch(const Query& query, const QueryClass& cls) {
  MpqOptions opts = MpqOptionsFor(cls);
  opts.alpha = 1.0;
  StatusOr<MpqResult> mpq = InProcessMpq(query, opts);
  if (!mpq.ok()) return "alpha=1 MPQ failed: " + mpq.status().ToString();
  mpqopt::DpConfig config = SerialConfig(cls);
  config.alpha = 1.0;
  StatusOr<mpqopt::DpResult> serial = mpqopt::OptimizeSerial(query, config);
  if (!serial.ok()) {
    return "alpha=1 OptimizeSerial failed: " + serial.status().ToString();
  }
  const std::vector<CostVector> got =
      Costs(mpq.value().arena, mpq.value().best);
  const std::vector<CostVector> want =
      Costs(serial.value().arena, serial.value().best);
  const double factor =
      std::max(CoverFactor(got, want), CoverFactor(want, got));
  if (factor <= 1 + 1e-12) return "";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "alpha=1 frontiers differ: %zu MPQ vs %zu serial plans, "
                "cover factor %.17g",
                got.size(), want.size(), factor);
  return buf;
}

/// The reference checks of one answer. Single objective: the exactness
/// theorem — the optimum equals OptimizeSerial's. Pareto: the answer is
/// exactly the final prune of the partition frontiers; on the sampled
/// answers, the alpha = 1 frontiers of MPQ and OptimizeSerial agree, and
/// how well the alpha = 10 answer covers the serial frontier is
/// recorded. rpc: the plan bytes equal the in-process answer's.
void RunReferenceCheck(CheckRecord* r) {
  const bool pareto = r->cls.objective == Objective::kTimeAndBuffer;
  std::vector<CostVector> reference;
  if (!pareto || r->cover_sample) {
    StatusOr<mpqopt::DpResult> serial =
        mpqopt::OptimizeSerial(*r->query, SerialConfig(r->cls));
    if (!serial.ok()) {
      r->ok = false;
      r->why = "OptimizeSerial failed: " + serial.status().ToString();
      return;
    }
    const mpqopt::DpResult& s = serial.value();
    r->serial_plans_costed = static_cast<uint64_t>(s.stats.plans_costed);
    reference = Costs(s.arena, s.best);
  }
  if (!pareto) {
    const double want = reference[0].time();
    const double got = r->costs[0].time();
    r->ok = std::fabs(got - want) <= 1e-12 * std::fabs(want);
    if (!r->ok) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "cost %.17g, serial optimum %.17g", got,
                    want);
      r->why = buf;
    }
  } else {
    if (r->cover_sample) {
      r->serial_cover_factor = CoverFactor(r->costs, reference);
    }
    StatusOr<std::vector<CostVector>> merged =
        MergedPartitionFrontier(*r->query, r->cls);
    r->ok = merged.ok() && merged.value().size() == r->costs.size();
    for (size_t i = 0; r->ok && i < r->costs.size(); ++i) {
      for (int k = 0; k < r->costs[i].num_metrics(); ++k) {
        r->ok = r->ok && r->costs[i][k] == merged.value()[i][k];
      }
    }
    if (!r->ok) {
      r->why = "frontier differs from the final prune of the partition "
               "frontiers";
    } else if (r->cover_sample) {
      r->why = ExactParetoMismatch(*r->query, r->cls);
      r->ok = r->why.empty();
    }
  }
  if (!r->ok || !r->compare_in_process) return;
  std::vector<uint8_t> local;
  if (r->cls.kind == ArrivalKind::kSma) {
    StatusOr<SmaResult> sma = mpqopt::SmaOptimize(*r->query,
                                                  SmaOptionsFor(r->cls));
    if (!sma.ok()) {
      r->ok = false;
      r->why = "in-process SMA failed: " + sma.status().ToString();
      return;
    }
    local = PlanBytes(sma.value().arena, sma.value().best);
  } else {
    StatusOr<MpqResult> mpq = InProcessMpq(*r->query, MpqOptionsFor(r->cls));
    if (!mpq.ok()) {
      r->ok = false;
      r->why = "in-process MPQ failed: " + mpq.status().ToString();
      return;
    }
    local = PlanBytes(mpq.value().arena, mpq.value().best);
  }
  r->ok = local == r->remote_bytes;
  if (!r->ok) r->why = "rpc plan bytes differ from the in-process plan";
}

/// Runs fn(i) for i in [0, n) on `threads` threads.
void ParallelFor(size_t n, int threads, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&]() {
      for (size_t i; (i = next.fetch_add(1)) < n;) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

// ------------------------------------------------------------------ rig

struct Rig {
  std::unique_ptr<WorkerFarm> farm;
  std::unique_ptr<mpqopt::OptimizerService> service;
  /// serve_mix: the plan bytes each pool query's first (warm-up) miss
  /// returned, for the hit checks.
  std::vector<std::vector<uint8_t>> pool_bytes;
  std::vector<CheckRecord> pool_checks;
  uint64_t pool_cache_bytes = 0;
  bool ok = true;
  std::string error;
};

/// Builds the service, its backend and (rpc) the worker farm, then warms
/// the pool on 4 threads. This is what setup_s times.
std::unique_ptr<Rig> BuildRig(const WorkloadSpec& spec, const Inputs& in,
                              const Args& args) {
  auto rig = std::make_unique<Rig>();
  mpqopt::ServiceOptions so;
  so.backend_threads = kBackendThreads;
  so.enable_plan_cache = true;
  so.plan_cache_bytes = kPlanCacheBytes;
  if (spec.rpc_workers > 0) {
    rig->farm = std::make_unique<WorkerFarm>();
    mpqopt::Status s =
        rig->farm->Start(spec.rpc_workers, args.worker_bin, args.log_dir);
    if (!s.ok()) {
      rig->ok = false;
      rig->error = s.ToString();
      return rig;
    }
    so.backend_kind = mpqopt::BackendKind::kRpc;
    so.workers_addr = rig->farm->Addresses();
    // One batch frame per worker and round instead of one exchange per
    // partition: up to 32 times fewer round trips, each of which the
    // host's wake-up latency can delay.
    so.coalesce_scatter = true;
  }
  rig->service = std::make_unique<mpqopt::OptimizerService>(so);
  if (!rig->service->init_status().ok()) {
    rig->ok = false;
    rig->error = rig->service->init_status().ToString();
    return rig;
  }
  rig->pool_bytes.resize(in.pool.size());
  rig->pool_checks.resize(in.pool.size());
  std::atomic<bool> pool_ok{true};
  ParallelFor(in.pool.size(), 4, [&](size_t i) {
    const Item& item = in.pool[i];
    const QueryClass& cls = spec.fresh_classes[static_cast<size_t>(item.cls)];
    StatusOr<MpqResult> r =
        rig->service->Optimize(item.query, MpqOptionsFor(cls));
    CheckRecord& check = rig->pool_checks[i];
    check.query = &item.query;
    check.cls = cls;
    if (!r.ok() || !ValidPlans(r.value().arena, r.value().best, item.query,
                               cls)) {
      pool_ok = false;
      return;
    }
    rig->pool_bytes[i] = PlanBytes(r.value().arena, r.value().best);
    check.costs = Costs(r.value().arena, r.value().best);
    check.plans_costed = static_cast<uint64_t>(r.value().total_plans_costed);
  });
  if (!pool_ok) {
    rig->ok = false;
    rig->error = "pool warm-up failed";
  }
  if (rig->service->plan_cache() != nullptr) {
    rig->pool_cache_bytes = rig->service->plan_cache()->stats().bytes_in_use;
  }
  return rig;
}

// --------------------------------------------------------------- window

enum class Outcome : uint8_t { kHit = 0, kMiss = 1, kSma = 2 };

constexpr int kSmaClassKey = 1000;

/// A traced arrival: its spans plus what the calls returned.
struct TracedArrival {
  Outcome outcome = Outcome::kMiss;
  std::vector<Span> spans;
  RoundFacts round;
  uint64_t plans_costed = 0;
  uint64_t splits_tried = 0;
  uint64_t admissible_sets = 0;
  uint64_t frontier_plans = 0;
  size_t check_index = SIZE_MAX;  ///< into the client's checks
};

struct ClientResult {
  std::vector<double> all_ms, hit_ms, miss_ms, sma_ms;
  /// Window latencies by query class (SMA classes offset by kSmaClassKey).
  std::vector<std::pair<int, double>> class_ms;
  std::vector<double> traced_ms, untraced_ms;  ///< --trace=1 only
  FailureCount failures;
  std::vector<CheckRecord> checks;
  /// First misses whose plan bytes the hit probe replays.
  std::vector<std::pair<const Item*, std::vector<uint8_t>>> probe;
  std::vector<TracedArrival> traced;
  std::vector<uint64_t> sma_messages, sma_bytes;
  size_t hit_probes = 0, sma_probes = 0;
  int64_t end_ns = 0;
  bool exhausted = false;
};

struct Window {
  const WorkloadSpec* spec;
  const Inputs* in;
  Rig* rig;
  bool trace;
  int64_t start_ns;
  int64_t deadline_ns;
};

/// The probes before arrival number `arrival` of one client. On a
/// workload whose window has no hits the client replays
/// hit_probes_per_arrival of its own earlier misses, which the cache
/// must now serve with the first miss's bytes; on one without SMA every
/// sma_probe_every-th arrival is preceded by one SMA query in SMA's
/// default in-process configuration (its private single-threaded
/// backend). Probes are timed and checked one by one but are not
/// arrivals: spread over the window, they see the host as the arrivals
/// do, at a cost of about 1% of the window.
void RunProbes(const Window& w, size_t arrival, ClientResult* out) {
  const WorkloadSpec& spec = *w.spec;
  for (int k = 0; k < spec.hit_probes_per_arrival && !out->probe.empty();
       ++k) {
    const auto& [item, bytes] = out->probe[out->hit_probes++ %
                                           out->probe.size()];
    const QueryClass& cls = spec.fresh_classes[static_cast<size_t>(item->cls)];
    const int64_t t0 = NowNs();
    StatusOr<MpqResult> r =
        w.rig->service->Optimize(item->query, MpqOptionsFor(cls));
    const double ms = static_cast<double>(NowNs() - t0) * 1e-6;
    const bool valid = r.ok() && r.value().from_plan_cache &&
                       ValidPlans(r.value().arena, r.value().best,
                                  item->query, cls) &&
                       PlanBytes(r.value().arena, r.value().best) == bytes;
    out->failures.Add(r.ok(), valid);
    if (r.ok()) out->hit_ms.push_back(ms);
  }
  if (spec.sma_probe_every == 0 ||
      arrival % static_cast<size_t>(spec.sma_probe_every) != 0) {
    return;
  }
  const std::vector<Item>& queries = w.in->sma_probes;
  const size_t k = out->sma_probes++;
  const Item& item = queries[k % queries.size()];
  const QueryClass& cls = SmaProbeClasses()[static_cast<size_t>(item.cls)];
  const int64_t t0 = NowNs();
  StatusOr<SmaResult> r = mpqopt::SmaOptimize(item.query, SmaOptionsFor(cls));
  const double ms = static_cast<double>(NowNs() - t0) * 1e-6;
  const bool valid =
      r.ok() && ValidPlans(r.value().arena, r.value().best, item.query, cls);
  out->failures.Add(r.ok(), valid);
  if (!valid) return;
  out->sma_ms.push_back(ms);
  out->sma_messages.push_back(r.value().network_messages);
  out->sma_bytes.push_back(r.value().network_bytes);
  if (k < queries.size()) {  // each probe query's first answer
    CheckRecord check;
    check.query = &item.query;
    check.cls = cls;
    check.costs = Costs(r.value().arena, r.value().best);
    out->checks.push_back(std::move(check));
  }
}

void RunClient(const Window& w, size_t client, ClientResult* out) {
  const std::vector<QueryRef>& stream = w.in->streams[client];
  mpqopt::OptimizerService* service = w.rig->service.get();
  const bool remote = w.spec->rpc_workers > 0;
  const int executors = remote ? w.spec->rpc_workers : kBackendThreads;
  // --trace=1 traces alternate whole class cycles of each source, so the
  // traced and the untraced arrivals see the same query mix.
  size_t seen[3] = {0, 0, 0};
  const size_t period[3] = {1, w.spec->fresh_classes.size(),
                            std::max<size_t>(w.spec->sma_classes.size(), 1)};
  for (size_t i = 0;; ++i) {
    if (NowNs() >= w.deadline_ns) break;
    if (i >= stream.size()) {
      out->exhausted = true;
      break;
    }
    RunProbes(w, i, out);
    const QueryRef ref = stream[i];
    const Item& item = ItemOf(*w.in, ref);
    const QueryClass& cls = ClassOf(*w.spec, *w.in, ref);
    const bool traced =
        w.trace && (seen[ref.source]++ / period[ref.source]) % 2 == 0;
    TracedArrival t;
    ArrivalTrace trace;

    if (cls.kind == ArrivalKind::kSma) {
      SmaOptions opts = SmaOptionsFor(cls);
      opts.backend = service->shared_backend();
      const int64_t t0 = NowNs();
      StatusOr<SmaResult> r = traced ? TracedSma(item.query, opts, &trace)
                                     : mpqopt::SmaOptimize(item.query, opts);
      const double ms = static_cast<double>(NowNs() - t0) * 1e-6;
      out->all_ms.push_back(ms);
      out->sma_ms.push_back(ms);
      out->class_ms.emplace_back(kSmaClassKey + item.cls, ms);
      (traced ? out->traced_ms : out->untraced_ms).push_back(ms);
      const bool valid = r.ok() && ValidPlans(r.value().arena, r.value().best,
                                              item.query, cls);
      out->failures.Add(r.ok(), valid);
      if (!valid) continue;
      out->sma_messages.push_back(r.value().network_messages);
      out->sma_bytes.push_back(r.value().network_bytes);
      CheckRecord check;
      check.query = &item.query;
      check.cls = cls;
      check.costs = Costs(r.value().arena, r.value().best);
      if (remote) {
        check.compare_in_process = true;
        check.remote_bytes = PlanBytes(r.value().arena, r.value().best);
      }
      out->checks.push_back(std::move(check));
      if (traced) {
        t.outcome = Outcome::kSma;
        t.spans = trace.Take();
        out->traced.push_back(std::move(t));
      }
      continue;
    }

    const MpqOptions opts = MpqOptionsFor(cls);
    const int64_t t0 = NowNs();
    StatusOr<MpqResult> r =
        traced ? TracedOptimize(service, item.query, opts, remote, executors,
                                &trace, &t.round)
               : service->Optimize(item.query, opts);
    const double ms = static_cast<double>(NowNs() - t0) * 1e-6;
    out->all_ms.push_back(ms);
    (traced ? out->traced_ms : out->untraced_ms).push_back(ms);
    if (!r.ok() || !r.value().from_plan_cache) {
      out->class_ms.emplace_back(item.cls, ms);
    }
    if (!r.ok()) {
      out->miss_ms.push_back(ms);
      out->failures.Add(false, false);
      continue;
    }
    const MpqResult& result = r.value();
    const bool hit = result.from_plan_cache;
    (hit ? out->hit_ms : out->miss_ms).push_back(ms);
    bool valid = ValidPlans(result.arena, result.best, item.query, cls);
    if (hit) {
      // A hit must return exactly the bytes of the query's first miss.
      valid = valid && ref.source == QueryRef::kPool &&
              PlanBytes(result.arena, result.best) ==
                  w.rig->pool_bytes[ref.index];
      out->failures.Add(true, valid);
    } else {
      out->failures.Add(true, valid);
      if (valid) {
        CheckRecord check;
        check.query = &item.query;
        check.cls = cls;
        check.costs = Costs(result.arena, result.best);
        check.plans_costed = static_cast<uint64_t>(result.total_plans_costed);
        const bool probe = w.spec->hit_probes_per_arrival > 0 &&
                           out->probe.size() < kHitProbeQueries;
        if (remote || probe) {
          std::vector<uint8_t> bytes = PlanBytes(result.arena, result.best);
          if (probe) out->probe.emplace_back(&item, bytes);
          if (remote) {
            check.compare_in_process = true;
            check.remote_bytes = std::move(bytes);
          }
        }
        t.check_index = out->checks.size();
        out->checks.push_back(std::move(check));
      }
    }
    if (traced) {
      t.outcome = hit ? Outcome::kHit : Outcome::kMiss;
      t.spans = trace.Take();
      if (!hit) {
        t.plans_costed = static_cast<uint64_t>(result.total_plans_costed);
        t.splits_tried = static_cast<uint64_t>(result.total_splits);
        for (int64_t sets : result.worker_memo_sets) {
          t.admissible_sets += static_cast<uint64_t>(sets);
        }
      }
      t.frontier_plans = result.best.size();
      out->traced.push_back(std::move(t));
    }
  }
  out->end_ns = NowNs();
}

// ------------------------------------------------------ modeled speedup

/// Runs fn() on the calling thread pinned to CPU `cpu` mod nproc, then
/// restores the thread's affinity (pinning that the host refuses is
/// skipped).
void RunPinned(int cpu, const std::function<void()>& fn) {
  const int cpus =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  cpu_set_t saved;
  const bool restore =
      pthread_getaffinity_np(pthread_self(), sizeof(saved), &saved) == 0;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % cpus, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  fn();
  if (restore) pthread_setaffinity_np(pthread_self(), sizeof(saved), &saved);
}

ModelNetwork ModelNetworkOf(const mpqopt::NetworkModel& model) {
  ModelNetwork net;
  net.latency_s = model.latency_s;
  net.bandwidth_bytes_per_s = model.bandwidth_bytes_per_s;
  net.task_setup_s = model.task_setup_s;
  return net;
}

/// Thread-CPU seconds `fn` takes on the calling thread.
template <typename Fn>
double CpuSeconds(Fn&& fn) {
  const int64_t start = ThreadCpuNs();
  fn();
  return static_cast<double>(ThreadCpuNs() - start) * 1e-9;
}

/// The paper's model (`modeled_speedup`) on a class-spread sample of the
/// workload's fresh queries. Every component is charged its own
/// thread-CPU time on one thread, so host contention cannot leak in.
/// The sample is measured in whole rounds, each on the next CPU, at
/// several points of the run (before the window, after it, after the
/// checks); every component keeps its minimum over all rounds. On a
/// shared host a core's speed changes by up to 2x for seconds at a
/// time, and the minimum is the undisturbed cost.
class ModeledSpeedupPass {
 public:
  ModeledSpeedupPass(const WorkloadSpec& spec, const Inputs& in) {
    const size_t classes = spec.fresh_classes.size();
    const size_t k = std::min(kModeledSample, classes);
    for (size_t j = 0; j < k; ++j) {
      Entry e;
      e.item = &in.fresh[j * classes / k];
      e.cls = spec.fresh_classes[static_cast<size_t>(e.item->cls)];
      e.q.serial_cpu_s = e.q.build_cpu_s = e.q.finalize_cpu_s = INFINITY;
      e.q.partition_cpu_s.assign(e.cls.workers, INFINITY);
      entries_.push_back(std::move(e));
    }
  }

  /// Measures rounds until `budget_s` has passed, at least one.
  void MeasureRounds(double budget_s) {
    const int64_t start = NowNs();
    do {
      RunPinned(next_cpu_++, [this] { MeasureRound(); });
    } while (static_cast<double>(NowNs() - start) * 1e-9 < budget_s);
  }

  /// Counts one checked call per sample query; returns the speedup.
  double Finish(FailureCount* failures) const {
    std::vector<ModeledQuery> measured;
    for (const Entry& e : entries_) {
      failures->Add(e.ok, e.ok);
      if (e.ok) measured.push_back(e.q);
    }
    return ModeledSpeedup(measured, ModelNetworkOf(mpqopt::NetworkModel()));
  }

 private:
  struct Entry {
    const Item* item = nullptr;
    QueryClass cls;
    ModeledQuery q;
    bool ok = true;
  };

  void MeasureRound() {
    for (Entry& e : entries_) {
      if (e.ok) MeasureOnce(&e);
    }
  }

  static void MeasureOnce(Entry* e) {
    const Query& query = e->item->query;
    MpqOptions opts = MpqOptionsFor(e->cls);
    opts.finalize_threads = 1;
    ModeledQuery& q = e->q;
    StatusOr<mpqopt::DpResult> serial = mpqopt::Status::Internal("not run");
    q.serial_cpu_s = std::min(q.serial_cpu_s, CpuSeconds([&] {
      serial = mpqopt::OptimizeSerial(query, SerialConfig(e->cls));
    }));
    std::vector<std::vector<uint8_t>> requests;
    q.build_cpu_s = std::min(q.build_cpu_s, CpuSeconds([&] {
      requests = MpqOptimizer::BuildRequests(query, opts);
    }));
    std::vector<std::vector<uint8_t>> responses(requests.size());
    bool ok = serial.ok();
    for (size_t p = 0; p < requests.size(); ++p) {
      StatusOr<std::vector<uint8_t>> response =
          mpqopt::Status::Internal("not run");
      q.partition_cpu_s[p] = std::min(q.partition_cpu_s[p], CpuSeconds([&] {
        response = MpqOptimizer::WorkerMain(requests[p]);
      }));
      ok = ok && response.ok();
      if (response.ok()) responses[p] = std::move(response).value();
    }
    StatusOr<MpqResult> fin = mpqopt::Status::Internal("not run");
    if (ok) {
      q.finalize_cpu_s = std::min(q.finalize_cpu_s, CpuSeconds([&] {
        fin = MpqOptimizer::FinalizeResponses(responses, opts);
      }));
      ok = fin.ok() &&
           ValidPlans(fin.value().arena, fin.value().best, query, e->cls);
    }
    if (ok && e->cls.objective == Objective::kTime) {
      const double want =
          serial.value().arena.node(serial.value().best[0]).cost.time();
      const double got =
          fin.value().arena.node(fin.value().best[0]).cost.time();
      ok = std::fabs(got - want) <= 1e-12 * std::fabs(want);
    }
    e->ok = ok;
    q.request_bytes.clear();
    q.response_bytes.clear();
    for (size_t p = 0; p < requests.size(); ++p) {
      q.request_bytes.push_back(requests[p].size());
      q.response_bytes.push_back(responses[p].size());
    }
  }

  std::vector<Entry> entries_;
  int next_cpu_ = 0;
};

// -------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

std::string SamplesNote(size_t n) { return "samples=" + std::to_string(n); }

void AddLatency(std::vector<Metric>* out, const std::string& prefix,
                std::vector<double> ms, bool with_tail) {
  std::sort(ms.begin(), ms.end());
  out->push_back(
      {prefix + "_p50_ms", Percentile(ms, 50), "ms", SamplesNote(ms.size())});
  if (!with_tail) return;
  const Tail tail = TailOf(ms);
  char note[96];
  std::snprintf(note, sizeof(note), "p%g samples=%zu beyond=%zu",
                tail.percentile, tail.samples, tail.beyond);
  out->push_back({prefix + "_tail_ms", tail.value, "ms", note});
}

double PeakRssMb() {
  rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------ per-layer ledger

/// Per-layer metrics and the reconciled ledger of the traced arrivals.
/// Returns false when the ledger does not reconcile.
bool LayerMetrics(const std::vector<ClientResult>& clients,
                  const std::vector<CheckRecord*>& checks_by_traced,
                  std::vector<Metric>* out) {
  std::vector<double> part_ms, query_cpu_ms, skew, plans, splits, sets,
      overhead, serialize_us, finalize_us, response_bytes, frontier, round_ms,
      round_over_ms, net_bytes, net_msgs, fp_us, lookup_us, insert_us,
      unattributed_us;
  double cpu_total_s = 0;
  double plans_total = 0;
  size_t mpq_arrivals = 0;
  size_t hits = 0;
  size_t arrivals = 0;
  double worst_residual = 0;
  std::map<std::string, double> layer_self_ns;
  double root_total_ns = 0;
  for (const ClientResult& c : clients) {
    for (const TracedArrival& t : c.traced) {
      ++arrivals;
      const std::vector<double> self = AttributeSelfTimes(t.spans);
      double sum = 0;
      for (size_t i = 0; i < t.spans.size(); ++i) {
        sum += self[i];
        layer_self_ns[i == 0 ? "service" : LayerOf(t.spans[i].name)] +=
            self[i];
        const double us =
            static_cast<double>(t.spans[i].end_ns - t.spans[i].start_ns) *
            1e-3;
        const std::string name = t.spans[i].name;
        if (name == "plancache.fingerprint") fp_us.push_back(us);
        if (name == "plancache.lookup") lookup_us.push_back(us);
        if (name == "plancache.insert") insert_us.push_back(us);
        if (name == "mpq.serialize") serialize_us.push_back(us);
        if (name == "mpq.finalize") finalize_us.push_back(us);
      }
      const double root_ns =
          static_cast<double>(t.spans[0].end_ns - t.spans[0].start_ns);
      root_total_ns += root_ns;
      worst_residual = std::max(worst_residual, std::fabs(sum - root_ns));
      unattributed_us.push_back(self[0] * 1e-3);
      if (t.outcome == Outcome::kSma) continue;
      ++mpq_arrivals;
      if (t.outcome == Outcome::kHit) {
        ++hits;
        continue;
      }
      const RoundFacts& f = t.round;
      if (!f.ran || f.partition_s.empty()) continue;
      double sum_s = 0;
      double max_s = 0;
      for (double s : f.partition_s) {
        part_ms.push_back(s * 1e3);
        sum_s += s;
        max_s = std::max(max_s, s);
      }
      query_cpu_ms.push_back(sum_s * 1e3);
      skew.push_back(max_s / (sum_s / static_cast<double>(f.partition_s.size())));
      plans.push_back(static_cast<double>(t.plans_costed));
      splits.push_back(static_cast<double>(t.splits_tried));
      sets.push_back(static_cast<double>(t.admissible_sets));
      cpu_total_s += sum_s;
      plans_total += static_cast<double>(t.plans_costed);
      response_bytes.push_back(static_cast<double>(f.response_bytes));
      frontier.push_back(static_cast<double>(t.frontier_plans));
      round_ms.push_back(f.round_s * 1e3);
      round_over_ms.push_back(
          (f.round_s - BalancedFloor(f.partition_s, f.executors)) * 1e3);
      net_bytes.push_back(static_cast<double>(f.net_bytes));
      net_msgs.push_back(static_cast<double>(f.net_messages));
    }
  }
  for (CheckRecord* check : checks_by_traced) {
    if (check != nullptr && check->serial_plans_costed > 0) {
      overhead.push_back(static_cast<double>(check->plans_costed) /
                         static_cast<double>(check->serial_plans_costed));
    }
  }
  std::vector<double> sorted_part = part_ms;
  std::sort(sorted_part.begin(), sorted_part.end());
  std::vector<double> sma_msgs, sma_bytes;
  for (const ClientResult& c : clients) {
    for (uint64_t v : c.sma_messages) sma_msgs.push_back(static_cast<double>(v));
    for (uint64_t v : c.sma_bytes) sma_bytes.push_back(static_cast<double>(v));
  }
  const std::string n = SamplesNote(query_cpu_ms.size());
  out->push_back({"optimizer.partition_cpu_ms_p50", Percentile(sorted_part, 50),
                  "ms", SamplesNote(part_ms.size())});
  out->push_back({"optimizer.partition_cpu_ms_max",
                  sorted_part.empty() ? 0 : sorted_part.back(), "ms",
                  SamplesNote(part_ms.size())});
  out->push_back({"optimizer.query_cpu_ms", Median(query_cpu_ms), "ms", n});
  out->push_back({"optimizer.skew", Median(skew), "ratio", n});
  out->push_back({"optimizer.plans_costed", Median(plans), "count", n});
  out->push_back({"optimizer.splits_tried", Median(splits), "count", n});
  out->push_back({"optimizer.admissible_sets", Median(sets), "count", n});
  out->push_back({"optimizer.ns_per_plan_costed",
                  plans_total > 0 ? cpu_total_s * 1e9 / plans_total : 0, "ns",
                  n});
  out->push_back({"optimizer.partition_overhead", Median(overhead), "ratio",
                  SamplesNote(overhead.size())});
  out->push_back({"mpq.serialize_us", Median(serialize_us), "us",
                  SamplesNote(serialize_us.size())});
  out->push_back({"mpq.finalize_us", Median(finalize_us), "us",
                  SamplesNote(finalize_us.size())});
  out->push_back({"plan.response_bytes", Median(response_bytes), "bytes", n});
  out->push_back({"plan.frontier_plans", Mean(frontier), "count", n});
  out->push_back({"cluster.round_ms", Median(round_ms), "ms", n});
  out->push_back({"cluster.round_overhead_ms", Median(round_over_ms), "ms", n});
  out->push_back({"net.bytes_per_query", Mean(net_bytes), "bytes", n});
  out->push_back({"net.messages_per_query", Mean(net_msgs), "count", n});
  out->push_back({"plancache.fingerprint_us", Median(fp_us), "us",
                  SamplesNote(fp_us.size())});
  out->push_back({"plancache.lookup_us", Median(lookup_us), "us",
                  SamplesNote(lookup_us.size())});
  out->push_back({"plancache.insert_us", Median(insert_us), "us",
                  SamplesNote(insert_us.size())});
  out->push_back({"plancache.hit_ratio",
                  mpq_arrivals == 0 ? 0
                                    : static_cast<double>(hits) /
                                          static_cast<double>(mpq_arrivals),
                  "ratio", SamplesNote(mpq_arrivals)});
  out->push_back({"service.unattributed_us", Median(unattributed_us), "us",
                  SamplesNote(unattributed_us.size())});
  out->push_back({"sma.messages_per_query", Mean(sma_msgs), "count",
                  SamplesNote(sma_msgs.size())});
  out->push_back({"sma.bytes_per_query", Mean(sma_bytes), "bytes",
                  SamplesNote(sma_bytes.size())});
  // The ledger: mean self time per traced arrival, by layer. The layers
  // plus the service's own (unattributed) time sum to the mean traced
  // service latency.
  const double per = arrivals == 0 ? 0 : 1e-3 / static_cast<double>(arrivals);
  double ledger_sum_us = 0;
  for (const char* layer :
       {"service", "plancache", "mpq", "cluster", "optimizer", "sma"}) {
    const double us = layer_self_ns[layer] * per;
    ledger_sum_us += us;
    out->push_back({std::string("ledger.") + layer + "_us", us, "us",
                    SamplesNote(arrivals)});
  }
  const double latency_us = root_total_ns * per;
  out->push_back({"ledger.latency_us", latency_us, "us", SamplesNote(arrivals)});
  out->push_back({"ledger.residual_ns", worst_residual, "ns",
                  "max |sum of self times - latency| over arrivals"});
  const bool reconciled =
      worst_residual <= 1.0 + 1e-9 * latency_us * 1e3 &&
      std::fabs(ledger_sum_us - latency_us) <= 1e-6 * std::max(1.0, latency_us);
  return reconciled;
}

void WriteSpans(const std::string& path,
                const std::vector<ClientResult>& clients, int64_t origin_ns) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  // Chrome trace-event format: one complete ("X") event per span, one
  // timeline row per traced arrival.
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  uint64_t arrival = 0;
  for (size_t c = 0; c < clients.size(); ++c) {
    for (const TracedArrival& t : clients[c].traced) {
      for (size_t i = 0; i < t.spans.size(); ++i) {
        const Span& s = t.spans[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%zu,"
                     "\"tid\":%" PRIu64 ",\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"arrival\":%" PRIu64
                     ",\"span\":%zu,\"parent\":%d,\"cpu_us\":%.3f}}",
                     first ? "" : ",", s.name, c, arrival,
                     static_cast<double>(s.start_ns - origin_ns) * 1e-3,
                     static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                     arrival, i, s.parent,
                     static_cast<double>(s.cpu_ns) * 1e-3);
        first = false;
      }
      ++arrival;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

// ---------------------------------------------------------------- main

int Main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // progress lines as they come
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; one of:",
                 args.workload.c_str());
    for (const WorkloadSpec& w : AllWorkloads()) {
      std::fprintf(stderr, " %s", w.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::printf("host: nproc=%u compiler=\"g++ %s\" build=%s source=%s\n",
              std::thread::hardware_concurrency(), __VERSION__,
              PERFBENCH_BUILD_TYPE, args.source_rev.c_str());
  std::printf("run: workload=%s seed=%" PRIu64 " seconds=%d trace=%d\n",
              spec->name.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);

  // Inputs first: nothing below is allowed to generate a query.
  const int64_t run_start = NowNs();
  const Inputs in = GenerateInputs(*spec, args.seed, args.seconds);
  const int64_t inputs_done = NowNs();

  // Set up the rig several times and keep the last; setup_s is the
  // median. Earlier rigs are torn down before the next one is timed.
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (int rep = 0; rep < kMaxSetupRepetitions; ++rep) {
    if (rep >= kMinSetupRepetitions &&
        static_cast<double>(NowNs() - inputs_done) * 1e-9 >=
            kSetupBudgetSeconds) {
      break;
    }
    rig.reset();  // tear the previous rig down outside the timing
    const int64_t t0 = NowNs();
    rig = BuildRig(*spec, in, args);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    if (!rig->ok) {
      std::fprintf(stderr, "setup failed: %s\n", rig->error.c_str());
      return 1;
    }
  }
  const uint64_t cache_before_window =
      rig->service->plan_cache()->stats().bytes_in_use;
  ModeledSpeedupPass modeled_pass(*spec, in);
  modeled_pass.MeasureRounds(kModeledBudgetSeconds);

  const int64_t setup_done = NowNs();
  // The timed window.
  std::vector<ClientResult> clients(static_cast<size_t>(spec->clients));
  Window w;
  w.spec = spec;
  w.in = &in;
  w.rig = rig.get();
  w.trace = args.trace;
  w.start_ns = NowNs();
  w.deadline_ns = w.start_ns + int64_t{args.seconds} * 1000000000;
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back(RunClient, std::cref(w), c, &clients[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  int64_t window_end = w.start_ns;
  bool exhausted = false;
  for (const ClientResult& c : clients) {
    window_end = std::max(window_end, c.end_ns);
    exhausted = exhausted || c.exhausted;
  }
  const double window_s = static_cast<double>(window_end - w.start_ns) * 1e-9;
  // Before the checks, whose reference computations are not the
  // service's memory.
  const double peak_rss_mb = PeakRssMb();
  const mpqopt::PlanCacheStats cache_stats =
      rig->service->plan_cache()->stats();

  // Checks, all outside the window. `outside` counts the checked calls
  // that are not window arrivals: pool warm-ups and modeled-pass queries.
  const int64_t window_done = NowNs();
  ClientResult outside;
  modeled_pass.MeasureRounds(kModeledBudgetSeconds);

  // Every answer already passed its inline checks (a failed warm-up
  // aborts setup); the reference pass can only turn one into a failure.
  std::vector<CheckRecord*> checks;
  std::vector<CheckRecord*> checks_by_traced;
  for (CheckRecord& check : rig->pool_checks) {
    checks.push_back(&check);
    outside.failures.Add(true, true);
  }
  for (ClientResult& c : clients) {
    for (CheckRecord& check : c.checks) checks.push_back(&check);
    for (const TracedArrival& t : c.traced) {
      if (t.outcome == Outcome::kMiss && t.check_index != SIZE_MAX) {
        checks_by_traced.push_back(&c.checks[t.check_index]);
      }
    }
  }
  size_t cover_sampled = 0;
  for (CheckRecord* check : checks) {
    if (check->cls.objective == Objective::kTimeAndBuffer &&
        cover_sampled < kCoverSample) {
      check->cover_sample = true;
      ++cover_sampled;
    }
  }
  ParallelFor(checks.size(), 4,
              [&](size_t i) { RunReferenceCheck(checks[i]); });
  modeled_pass.MeasureRounds(kModeledBudgetSeconds);
  const double modeled = modeled_pass.Finish(&outside.failures);
  const auto secs = [](int64_t a, int64_t b) {
    return static_cast<double>(b - a) * 1e-9;
  };
  std::printf("phases_s: inputs=%.2f setup=%.2f window=%.2f checks=%.2f\n",
              secs(run_start, inputs_done), secs(inputs_done, setup_done),
              secs(setup_done, window_done), secs(window_done, NowNs()));
  FailureCount failures = outside.failures;
  for (const ClientResult& c : clients) failures.Merge(c.failures);
  size_t pareto_answers = 0;
  size_t pareto_uncovered = 0;
  double worst_cover = 1.0;
  for (const CheckRecord* check : checks) {
    if (check->cover_sample) {
      ++pareto_answers;
      if (check->serial_cover_factor > 10.0 * (1 + 1e-12)) ++pareto_uncovered;
      worst_cover = std::max(worst_cover, check->serial_cover_factor);
    }
    if (check->ok) continue;
    failures.MarkCheckFailed();
    std::fprintf(stderr, "check failed: %s: %s\n", check->cls.Label().c_str(),
                 check->why.c_str());
  }
  if (pareto_answers > 0) {
    std::printf("pareto: sampled_answers=%zu (alpha=1 checked exact) "
                "not_alpha_covering_serial=%zu "
                "worst_cover_factor=%.4g alpha=10\n",
                pareto_answers, pareto_uncovered, worst_cover);
  }

  // Metrics.
  std::vector<double> all_ms, hit_ms, miss_ms, sma_ms, traced_ms, untraced_ms;
  size_t completed = 0;
  size_t hit_probes = 0;
  size_t sma_probes = 0;
  for (const ClientResult& c : clients) {
    hit_probes += c.hit_probes;
    sma_probes += c.sma_probes;
    all_ms.insert(all_ms.end(), c.all_ms.begin(), c.all_ms.end());
    hit_ms.insert(hit_ms.end(), c.hit_ms.begin(), c.hit_ms.end());
    miss_ms.insert(miss_ms.end(), c.miss_ms.begin(), c.miss_ms.end());
    sma_ms.insert(sma_ms.end(), c.sma_ms.begin(), c.sma_ms.end());
    traced_ms.insert(traced_ms.end(), c.traced_ms.begin(), c.traced_ms.end());
    untraced_ms.insert(untraced_ms.end(), c.untraced_ms.begin(),
                       c.untraced_ms.end());
    completed += c.all_ms.size();
  }

  std::printf("cache: capacity=%zu MiB pool=%.2f MiB window_inserts=%.2f MiB "
              "entries=%" PRIu64 " evictions=%" PRIu64 "\n",
              kPlanCacheBytes >> 20,
              static_cast<double>(rig->pool_cache_bytes) / (1 << 20),
              static_cast<double>(cache_stats.bytes_in_use -
                                  cache_before_window) /
                  (1 << 20),
              cache_stats.entries, cache_stats.evictions());
  // Where the mix puts its medians: p50 of every class of fresh and SMA
  // arrivals in the window, fastest first.
  std::map<std::string, std::vector<double>> by_class;
  for (const ClientResult& c : clients) {
    for (const auto& [key, ms] : c.class_ms) {
      const QueryClass& cls =
          key >= kSmaClassKey
              ? spec->sma_classes[static_cast<size_t>(key - kSmaClassKey)]
              : spec->fresh_classes[static_cast<size_t>(key)];
      by_class[cls.Label()].push_back(ms);
    }
  }
  std::vector<std::pair<double, std::string>> class_lines;
  for (const auto& [label, ms] : by_class) {
    const double p50 = Median(ms);
    char line[160];
    std::snprintf(line, sizeof(line), "class: %-24s n=%-6zu p50_ms=%.4f",
                  label.c_str(), ms.size(), p50);
    class_lines.emplace_back(p50, line);
  }
  std::sort(class_lines.begin(), class_lines.end());
  for (const auto& line : class_lines) std::printf("%s\n", line.second.c_str());
  std::printf("arrivals: window=%zu misses=%zu window_s=%.3f timed: hits=%zu "
              "sma=%zu of which probes: hits=%zu sma=%zu\n",
              completed, miss_ms.size(), window_s, hit_ms.size(),
              sma_ms.size(), hit_probes, sma_probes);
  std::printf("failures: attempted=%" PRIu64 " failed_calls=%" PRIu64
              " failed_checks=%" PRIu64 " failed_ratio=%.6g\n",
              failures.attempted, failures.failed_calls,
              failures.failed_checks, failures.ratio());

  std::vector<Metric> metrics;
  bool ok = failures.failed() == 0;
  if (exhausted) {
    std::fprintf(stderr, "error: a client ran out of pre-generated arrivals; "
                         "raise the workload's per-second budgets\n");
    ok = false;
  }
  if (cache_stats.evictions() != 0) {
    std::fprintf(stderr, "error: the plan cache evicted during the run; the "
                         "workload is not stationary\n");
    ok = false;
  }
  if (!args.trace) {
    metrics.push_back({"setup_s", Median(setup_s), "s",
                       SamplesNote(setup_s.size())});
    metrics.push_back({"throughput_qps",
                       static_cast<double>(completed) / window_s, "1/s",
                       SamplesNote(completed)});
    AddLatency(&metrics, "latency", all_ms, true);
    AddLatency(&metrics, "hit_latency", hit_ms, true);
    AddLatency(&metrics, "miss_latency", miss_ms, true);
    AddLatency(&metrics, "sma_latency", sma_ms, false);
    metrics.push_back({"modeled_speedup", modeled, "x",
                       SamplesNote(std::min(kModeledSample,
                                            spec->fresh_classes.size()))});
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB",
                       "driver process, set-up and window"});
  } else {
    if (!LayerMetrics(clients, checks_by_traced, &metrics)) {
      std::fprintf(stderr, "error: the ledger does not reconcile\n");
      ok = false;
    }
    std::sort(traced_ms.begin(), traced_ms.end());
    std::sort(untraced_ms.begin(), untraced_ms.end());
    const double traced_p50 = Percentile(traced_ms, 50);
    const double untraced_p50 = Percentile(untraced_ms, 50);
    metrics.push_back({"trace.overhead_us", (traced_p50 - untraced_p50) * 1e3,
                       "us", "p50 traced - p50 untraced arrivals"});
    metrics.push_back({"trace.overhead_pct",
                       untraced_p50 > 0
                           ? (traced_p50 / untraced_p50 - 1) * 100
                           : 0,
                       "%", SamplesNote(traced_ms.size())});
    if (!args.spans_out.empty()) WriteSpans(args.spans_out, clients, w.start_ns);
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %16.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  rig.reset();  // stops the worker farm and waits for it

  if (!ok) {
    std::fprintf(stderr, "FAILED: %" PRIu64 " of %" PRIu64
                         " arrivals failed or the run was invalid\n",
                 failures.failed(), failures.attempted);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              ok ? "true" : "false", failures.attempted, failures.failed());
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
