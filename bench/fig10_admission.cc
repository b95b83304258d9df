// Copyright 2026 mpqopt authors.
//
// Figure 10 (repo extension, not in the paper): the admission layer
// under overload — tail latency and goodput at 10x offered load, with
// admission control on vs off.
//
// Phase 1, overload: an open-loop arrival process (the burst_open_loop
// idea at bench scale) offers a mixed interactive/background stream at
// TEN TIMES the service's calibrated serial rate. With admission OFF,
// every arrival runs at once: the shared pool oversubscribes and the
// interactive tail inflates without bound. With admission ON, the
// weighted-fair priority queue bounds in-service concurrency, lets
// interactive work overtake queued background work, sheds load past the
// per-class depth caps, and expires requests that out-waited their
// queue deadline — so the interactive p99 stays near its uncontended
// value and every rejection is a deterministic, immediate error instead
// of a timeout discovered downstream. The background tenant also
// carries a token-bucket quota, so over-rate background arrivals are
// rejected before they ever queue.
//
// Phase 2, determinism: admission and scatter coalescing must never
// change WHAT the optimizer produces, only when work is allowed to run.
// A fixed query set is optimized under {admission off/on} x {coalesce
// off/on} on every backend, and the run FAILS (exit 1) unless every
// combination picks byte-identical plans.
//
// Flags:
//   --json=<path>    machine-readable records (BenchJsonWriter schema)
//   --smoke          shortened overload run — the CI configuration
//   --backends=<csv> phase-2 backends (default async,rpc;
//                    rpc self-hosts mpqopt_worker subprocesses and is
//                    skipped with a notice when the binary is missing)
//
// Knobs: MPQOPT_ADMISSION_ARRIVALS (total offered arrivals, default
// 240; smoke forces 60), MPQOPT_ADMISSION_LOAD (offered-load multiple,
// default 10), MPQOPT_POOL_THREADS (4), MPQOPT_RPC_WORKERS (2), and the
// shared MPQOPT_SEED / network knobs of bench_common.h.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "bench/bench_common.h"
#include "plan/plan_serde.h"
#include "plancache/fingerprint.h"
#include "service/optimizer_service.h"
#include "tests/rpc_test_util.h"

namespace mpqopt {
namespace {

using Clock = std::chrono::steady_clock;

/// Canonical 128-bit hash of a chosen plan set (same construction as
/// macrobench): agreeing on the hash means agreeing on the whole plan.
std::string PlanSignature(const PlanArena& arena,
                          const std::vector<PlanId>& best) {
  ByteWriter writer;
  SerializePlanSet(arena, best, &writer);
  const std::vector<uint8_t>& bytes = writer.buffer();
  char out[48];
  std::snprintf(out, sizeof(out), "%016llx%016llx",
                static_cast<unsigned long long>(
                    HashBytes64(bytes.data(), bytes.size(), /*seed=*/1)),
                static_cast<unsigned long long>(
                    HashBytes64(bytes.data(), bytes.size(), /*seed=*/2)));
  return out;
}

using obs::Percentile;

/// The overload stream: every third arrival is a heavy background
/// query, the rest are light interactive lookups.
struct ArrivalPlan {
  const Query* query;
  const MpqOptions* options;
  RequestContext ctx;
};

/// Outcome of one overload replay.
struct OverloadResult {
  std::vector<double> interactive_latency;  // completed interactive only
  uint64_t completed = 0;
  uint64_t rejected_quota = 0;
  uint64_t rejected_queue = 0;
  uint64_t timed_out = 0;
  uint64_t other_failures = 0;
  double wall_seconds = 0;
};

OverloadResult RunOverload(const std::vector<ArrivalPlan>& arrivals,
                           double interarrival_ms, bool admission,
                           int pool_threads) {
  ServiceOptions service_opts;
  // Admission OFF lets every arrival submit at once: the pool interleaves
  // all in-flight rounds fairly, so each query's latency grows with the
  // number of queries in service.
  service_opts.backend_kind = BackendKind::kAsyncBatch;
  service_opts.network = NetworkFromEnv();
  service_opts.backend_threads = pool_threads;
  service_opts.enable_admission = admission;
  if (admission) {
    // Concurrency bounded to the pool (running more masters than pool
    // threads only builds queues downstream), shallow per-class queues,
    // and a deadline tight enough that shed work fails while the client
    // would still care about the answer.
    service_opts.admission.max_concurrent = pool_threads;
    service_opts.admission.queue_depth = 16;
    service_opts.admission.queue_timeout_ms = 500;
  }
  OptimizerService service(service_opts);
  if (admission) {
    // The background tenant is rate-limited on top of the queue: over-
    // rate ETL arrivals bounce off the token bucket without queueing.
    service.admission()->SetQuota("etl", /*rate_per_second=*/50,
                                  /*burst=*/10);
  }

  OverloadResult result;
  std::mutex result_mutex;
  std::vector<std::thread> threads;
  threads.reserve(arrivals.size());
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < arrivals.size(); ++i) {
    threads.emplace_back([&, i]() {
      std::this_thread::sleep_until(
          start + std::chrono::duration<double, std::milli>(
                      interarrival_ms * static_cast<double>(i)));
      const ArrivalPlan& plan = arrivals[i];
      const Clock::time_point t0 = Clock::now();
      const StatusOr<MpqResult> r =
          service.Optimize(*plan.query, *plan.options, plan.ctx);
      const double latency =
          std::chrono::duration<double>(Clock::now() - t0).count();
      std::lock_guard<std::mutex> lock(result_mutex);
      if (r.ok()) {
        ++result.completed;
        if (plan.ctx.priority == Priority::kInteractive) {
          result.interactive_latency.push_back(latency);
        }
      } else if (r.status().code() == StatusCode::kResourceExhausted) {
        // Quota and queue-full rejections both surface as
        // ResourceExhausted; split them from the service counters below.
        ++result.rejected_queue;
      } else if (r.status().code() == StatusCode::kDeadlineExceeded) {
        ++result.timed_out;
      } else {
        ++result.other_failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  const ServiceStats stats = service.stats();
  result.rejected_quota = stats.rejected_quota;
  if (result.rejected_queue >= stats.rejected_quota) {
    result.rejected_queue -= stats.rejected_quota;
  }
  return result;
}

/// One phase-2 cell: the fixed query set through a service configured
/// with (admission, coalesce) on the given shared backend; returns the
/// concatenated plan signatures or an error.
StatusOr<std::string> RunIdentityCell(
    const std::shared_ptr<ExecutionBackend>& backend,
    const std::vector<Query>& queries, const MpqOptions& opts,
    bool admission) {
  ServiceOptions service_opts;
  service_opts.backend = backend;
  service_opts.enable_admission = admission;
  // The coalescing knob was applied when `backend` was constructed;
  // ServiceOptions::coalesce_scatter only matters when the service
  // builds its own backend.
  OptimizerService service(service_opts);
  RequestContext ctx;
  ctx.tenant = "identity";
  std::string sigs;
  for (const Query& query : queries) {
    StatusOr<MpqResult> r = service.Optimize(query, opts, ctx);
    if (!r.ok()) return r.status();
    sigs += PlanSignature(r.value().arena, r.value().best);
    sigs += "\n";
  }
  return sigs;
}

}  // namespace
}  // namespace mpqopt

int main(int argc, char** argv) {
  using namespace mpqopt;
  const std::string json_path = BenchJsonWriter::ParseFlag(&argc, argv);
  BenchJsonWriter json;
  const BenchConfig config = BenchConfig::FromEnv();

  bool smoke = false;
  std::string backends_csv = "async,rpc";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--backends=", 11) == 0) {
      backends_csv = argv[i] + 11;
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: %s [--smoke] [--json=PATH] "
                   "[--backends=async,rpc]\n",
                   argv[i], argv[0]);
      return 2;
    }
  }
  const int total_arrivals =
      smoke ? 60
            : static_cast<int>(EnvInt("MPQOPT_ADMISSION_ARRIVALS", 240));
  const double load_multiple =
      static_cast<double>(EnvInt("MPQOPT_ADMISSION_LOAD", 10));
  const int pool_threads =
      static_cast<int>(EnvInt("MPQOPT_POOL_THREADS", 4));
  const int rpc_workers =
      static_cast<int>(EnvInt("MPQOPT_RPC_WORKERS", 2));

  PrintHeader(smoke ? "Figure 10 — admission under overload (smoke)"
                    : "Figure 10 — admission under overload");

  // The traffic mix: light interactive stars for the latency-sensitive
  // class, heavier bushy queries as the background/ETL class.
  // Sized so the classes genuinely differ: an 8-table star optimizes in
  // a fraction of a millisecond, a 13-table chain takes tens of
  // milliseconds of real DP work — the background class can actually
  // monopolize the pool when nothing stops it.
  MpqOptions light_opts;
  light_opts.space = PlanSpace::kLinear;
  light_opts.num_workers = UsableWorkers(8, PlanSpace::kLinear, 8);
  light_opts.network = NetworkFromEnv();
  MpqOptions heavy_opts;
  heavy_opts.space = PlanSpace::kLinear;
  heavy_opts.num_workers = UsableWorkers(13, PlanSpace::kLinear, 16);
  heavy_opts.network = light_opts.network;
  const std::vector<Query> light =
      MakeQueries(8, 4, JoinGraphShape::kStar, config.seed);
  const std::vector<Query> heavy =
      MakeQueries(13, 2, JoinGraphShape::kChain, config.seed + 1);

  std::vector<ArrivalPlan> arrivals;
  arrivals.reserve(static_cast<size_t>(total_arrivals));
  for (int i = 0; i < total_arrivals; ++i) {
    ArrivalPlan plan;
    if (i % 3 == 2) {
      plan.query = &heavy[static_cast<size_t>(i / 3) % heavy.size()];
      plan.options = &heavy_opts;
      plan.ctx.tenant = "etl";
      plan.ctx.priority = Priority::kBackground;
    } else {
      plan.query = &light[static_cast<size_t>(i) % light.size()];
      plan.options = &light_opts;
      plan.ctx.tenant = "dash";
      plan.ctx.priority = Priority::kInteractive;
    }
    arrivals.push_back(plan);
  }

  // ---- Calibrate: the serial service rate of the mix. -----------------
  // One warm pass over the distinct queries, then a timed serial pass;
  // the offered load is `load_multiple` times the measured rate.
  double interarrival_ms = 1.0;
  {
    ServiceOptions service_opts;
    service_opts.backend_kind = BackendKind::kAsyncBatch;
    service_opts.network = light_opts.network;
    service_opts.backend_threads = pool_threads;
    OptimizerService service(service_opts);
    const int probe = std::min<int>(12, total_arrivals);
    for (int pass = 0; pass < 2; ++pass) {
      const Clock::time_point t0 = Clock::now();
      for (int i = 0; i < probe; ++i) {
        const ArrivalPlan& plan = arrivals[static_cast<size_t>(i)];
        MPQOPT_CHECK(service.Optimize(*plan.query, *plan.options).ok());
      }
      const double mean_s =
          std::chrono::duration<double>(Clock::now() - t0).count() / probe;
      interarrival_ms = mean_s * 1e3 / load_multiple;
    }
    // Floor: sleep_until cannot usefully space arrivals tighter than
    // scheduler granularity; the offered load stays >= the multiple.
    interarrival_ms = std::max(interarrival_ms, 0.05);
  }
  const double offered_qps = 1e3 / interarrival_ms;
  std::printf(
      "%d arrivals (2/3 interactive 8-table, 1/3 background 13-table),\n"
      "offered %.0f q/s (%.0fx the calibrated serial rate), pool %d "
      "threads\n\n",
      total_arrivals, offered_qps, load_multiple, pool_threads);

  // ---- Phase 1: overload with admission off vs on. --------------------
  TablePrinter table({"admission", "completed", "shed", "quota", "expired",
                      "interactive p99 (ms)", "goodput q/s"});
  double p99[2] = {0, 0};
  double goodput[2] = {0, 0};
  for (const bool admission : {false, true}) {
    const OverloadResult r =
        RunOverload(arrivals, interarrival_ms, admission, pool_threads);
    if (r.other_failures > 0) {
      std::fprintf(stderr, "%llu arrivals failed outside admission\n",
                   static_cast<unsigned long long>(r.other_failures));
      return 1;
    }
    const double p = Percentile(r.interactive_latency, 99) * 1e3;
    const double g = r.wall_seconds > 0
                         ? static_cast<double>(r.completed) / r.wall_seconds
                         : 0;
    p99[admission ? 1 : 0] = p;
    goodput[admission ? 1 : 0] = g;
    table.AddRow({admission ? "on" : "off", std::to_string(r.completed),
                  std::to_string(r.rejected_queue),
                  std::to_string(r.rejected_quota),
                  std::to_string(r.timed_out),
                  TablePrinter::FormatDouble(p, 2),
                  TablePrinter::FormatDouble(g, 1)});
    const std::string cfg = std::string("admission=") +
                            (admission ? "on" : "off") +
                            (smoke ? ",smoke=1" : "");
    json.Add("fig10_admission", cfg, "interactive_p99", p, "ms");
    json.Add("fig10_admission", cfg, "goodput", g, "q/s");
    json.Add("fig10_admission", cfg, "completed",
             static_cast<double>(r.completed), "count");
    json.Add("fig10_admission", cfg, "shed_queue",
             static_cast<double>(r.rejected_queue), "count");
    json.Add("fig10_admission", cfg, "rejected_quota",
             static_cast<double>(r.rejected_quota), "count");
    json.Add("fig10_admission", cfg, "timed_out",
             static_cast<double>(r.timed_out), "count");
    json.Add("fig10_admission", cfg, "offered_qps", offered_qps, "q/s");
  }
  table.Print();
  std::printf("\n");

  // ---- Phase 2: plan byte-identity across the admission/coalescing
  // matrix on every backend. -------------------------------------------
  const std::vector<Query> identity_queries =
      MakeQueries(7, 3, JoinGraphShape::kStar, config.seed + 2);
  MpqOptions identity_opts;
  identity_opts.space = PlanSpace::kLinear;
  identity_opts.num_workers = UsableWorkers(7, PlanSpace::kLinear, 8);
  identity_opts.network = light_opts.network;

  bool plans_identical = true;
  std::string reference;
  std::string reference_label;
  RpcWorkerFarm farm;  // outlives the rpc backends that dial it
  TablePrinter identity({"backend", "admission", "coalesce", "plans"});
  for (size_t start = 0; start < backends_csv.size();) {
    size_t comma = backends_csv.find(',', start);
    if (comma == std::string::npos) comma = backends_csv.size();
    const std::string name = backends_csv.substr(start, comma - start);
    start = comma + 1;
    if (name.empty()) continue;
    StatusOr<BackendKind> kind = ParseBackendKind(name);
    if (!kind.ok()) {
      std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
      return 2;
    }
    const bool is_rpc = kind.value() == BackendKind::kRpc;
    if (is_rpc &&
        (rpc_workers <= 0 || ::access(WorkerBinaryPath(), X_OK) != 0)) {
      std::printf(
          "rpc cells skipped (worker binary '%s' not runnable; set "
          "MPQOPT_WORKER_BIN or\nrun from the build directory)\n",
          WorkerBinaryPath());
      continue;
    }
    if (is_rpc && farm.size() == 0) farm.Start(rpc_workers);
    for (const bool admission : {false, true}) {
      for (const bool coalesce : {false, true}) {
        // The coalescing knob lives on backend construction, so each
        // cell builds its own backend (rpc cells redial the same farm).
        BackendOptions opts;
        opts.network = identity_opts.network;
        opts.max_threads = pool_threads;
        opts.workers_addr = farm.workers_addr();
        opts.coalesce_scatter = coalesce;
        StatusOr<std::shared_ptr<ExecutionBackend>> backend =
            MakeBackend(kind.value(), opts);
        MPQOPT_CHECK(backend.ok());
        StatusOr<std::string> sigs = RunIdentityCell(
            backend.value(), identity_queries, identity_opts, admission);
        if (!sigs.ok()) {
          std::fprintf(stderr, "identity cell %s failed: %s\n",
                       name.c_str(), sigs.status().ToString().c_str());
          return 1;
        }
        std::string verdict = "reference";
        if (reference.empty()) {
          reference = sigs.value();
          reference_label = name;
        } else if (sigs.value() == reference) {
          verdict = "= " + reference_label;
        } else {
          verdict = "MISMATCH";
          plans_identical = false;
        }
        identity.AddRow({name, admission ? "on" : "off",
                         coalesce ? "on" : "off", verdict});
        json.Add("fig10_admission",
                 "backend=" + name + ",admission=" +
                     (admission ? "on" : "off") + ",coalesce=" +
                     (coalesce ? "on" : "off"),
                 "plans_identical", sigs.value() == reference ? 1 : 0,
                 "bool");
      }
    }
  }
  identity.Print();

  if (!json_path.empty() && !json.WriteTo(json_path)) return 1;

  if (!plans_identical) {
    std::fprintf(stderr,
                 "\nFAIL: admission or coalescing changed a plan choice — "
                 "the byte-identity contract is broken\n");
    return 1;
  }
  std::printf(
      "\nAll admission/coalescing combinations picked identical plans on "
      "every backend.\n"
      "Expected phase-1 shape: admission on keeps the interactive p99 "
      "near its\nuncontended value (off lets the oversubscribed pool "
      "inflate it: %s),\nwhile goodput holds — shed work fails fast "
      "instead of dragging the tail.\n",
      p99[1] < p99[0] ? "holds here" : "NOT visible in this run");
  if (goodput[1] > 0 || goodput[0] > 0) {
    std::printf("Goodput: %.1f q/s (off) vs %.1f q/s (on).\n", goodput[0],
                goodput[1]);
  }
  return 0;
}
