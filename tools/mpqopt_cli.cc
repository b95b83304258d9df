// Copyright 2026 mpqopt authors.
//
// mpqopt_cli — command-line front end to the optimizer library.
//
// Generates a Steinbrunn benchmark query (or a fixed-seed one) and runs
// the requested optimizer variant, printing the plan(s), cost(s), and
// cluster statistics. Intended for quick exploration and scripting:
//
//   mpqopt_cli --tables=16 --shape=star --workers=64 --space=linear
//   mpqopt_cli --tables=12 --objective=mo --alpha=2 --workers=16
//   mpqopt_cli --tables=10 --variant=pqo --parametric-table=0
//   mpqopt_cli --tables=10 --variant=io --space=bushy
//   mpqopt_cli --tables=12 --workers=16 --backend=async --concurrent-queries=8
//   mpqopt_cli --tables=12 --backend=rpc --workers-addr=127.0.0.1:7001
//   mpqopt_cli --tables=12 --concurrent-queries=32 --unique-queries=4
//       --plan-cache --plan-cache-mb=16   (one line)
//
// The usage text is generated from kFlagDocs below — new flags document
// themselves by adding a row, and the accepted --backend= values come
// from the backend name table (BackendKindList), so --help can never
// drift from the real option surface.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/generator.h"
#include "mpq/mpq.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/percentile.h"
#include "obs/telemetry_server.h"
#include "obs/trace.h"
#include "optimizer/pqo.h"
#include "plan/plan.h"
#include "service/optimizer_service.h"
#include "sma/sma.h"

namespace mpqopt {
namespace {

struct CliOptions {
  int tables = 10;
  JoinGraphShape shape = JoinGraphShape::kStar;
  PlanSpace space = PlanSpace::kLinear;
  uint64_t workers = 1;
  uint64_t seed = 42;
  Objective objective = Objective::kTime;
  double alpha = 10.0;
  std::string variant = "dp";
  int parametric_table = 0;
  BackendKind backend = BackendKind::kAsyncBatch;
  std::string workers_addr;
  int worker_retries = 2;
  int worker_backoff_ms = 50;
  int concurrent_queries = 0;
  int unique_queries = 0;  // 0 = every query distinct
  bool plan_cache = false;
  int plan_cache_mb = 64;
  double plan_cache_ttl = 0;
  bool admission = false;
  double tenant_rate = 0;
  double tenant_burst = 1;
  Priority priority = Priority::kInteractive;
  int queue_depth = 64;
  bool coalesce = false;
  std::string trace_out;
  double slow_query_ms = 0;
  int telemetry_port = -1;  // -1 = no telemetry server
  int stall_watchdog_ms = 0;
  bool statz = false;
  /// True once any serving-only flag (--plan-cache*, --unique-queries)
  /// was given, so Main can reject them outside serving mode instead of
  /// silently ignoring them.
  bool serving_flags_used = false;
  bool help = false;
};

/// One row of the option surface: flag name, value placeholder shown in
/// --help (null for valueless flags), and help text. This table is the
/// single authority for the usage message.
struct FlagDoc {
  const char* name;
  const char* value;  // placeholder, or nullptr for boolean flags
  const char* help;
};

const FlagDoc kFlagDocs[] = {
    {"--tables", "N", "number of tables joined by each query"},
    {"--shape", "chain|star|cycle|clique", "join graph shape"},
    {"--space", "linear|bushy", "plan space"},
    {"--workers", "M", "plan-space partitions (power of two)"},
    {"--seed", "S", "workload generator seed"},
    {"--objective", "time|mo", "single- or multi-objective optimization"},
    {"--alpha", "A", "multi-objective approximation factor"},
    {"--variant", "dp|io|pqo|sma",
     "optimizer variant (sma = the per-level broadcast baseline, "
     "distributed through stateful worker sessions)"},
    {"--parametric-table", "T", "parametric table for --variant=pqo"},
    {"--backend", nullptr /* filled from BackendKindList() */,
     "worker-execution runtime (default async: a persistent in-process "
     "pool; rpc: mpqopt_worker processes)"},
    {"--workers-addr", "HOST:PORT[,HOST:PORT...]",
     "rpc worker endpoints (required for --backend=rpc)"},
    {"--worker-retries", "N",
     "rpc: redials per worker failure before it is marked dead "
     "(default 2; 0 = dead on first failure)"},
    {"--worker-backoff-ms", "MS",
     "rpc: initial redial backoff, doubling per failure (default 50)"},
    {"--concurrent-queries", "Q",
     "serving mode: optimize Q queries concurrently via OptimizerService"},
    {"--unique-queries", "U",
     "serving mode: draw the Q queries from U distinct shapes "
     "(repeated-workload axis; 0 = all distinct)"},
    {"--plan-cache", nullptr,
     "serving mode: memoize plans by query fingerprint"},
    {"--plan-cache-mb", "MB", "plan cache byte budget (default 64)"},
    {"--plan-cache-ttl", "SECONDS",
     "plan cache entry lifetime (0 = never expires)"},
    {"--admission", nullptr,
     "serving mode: admission control in front of the backend "
     "(quota + bounded priority queue)"},
    {"--tenant-rate", "R",
     "admission: per-tenant sustained admissions/second "
     "(default 0 = unlimited)"},
    {"--tenant-burst", "B",
     "admission: per-tenant burst credit (bucket capacity, default 1)"},
    {"--priority", nullptr /* filled from PriorityList() */,
     "admission: priority class the queries run as (default interactive)"},
    {"--queue-depth", "N",
     "admission: per-class queue depth; arrivals past it are shed "
     "(default 64)"},
    {"--coalesce", nullptr,
     "rpc: coalesce per-partition scatter requests into one batch frame "
     "per worker"},
    {"--trace-out", "PATH",
     "serving mode: write per-query span traces as Chrome trace-event "
     "JSON (load in chrome://tracing or Perfetto)"},
    {"--slow-query-ms", "MS",
     "serving mode: print a span breakdown to stderr for any query "
     "slower than MS milliseconds (0 = off)"},
    {"--telemetry-port", "PORT",
     "serving mode: serve /metrics (Prometheus, fleet-wide), /healthz, "
     "/readyz, /statz and /debug/flightrecorder over HTTP on "
     "127.0.0.1:PORT (0 picks an ephemeral port)"},
    {"--stall-watchdog-ms", "MS",
     "flag any rpc round in flight longer than MS milliseconds into the "
     "flight recorder and obs.stalls_total (0 = off)"},
    {"--statz", nullptr,
     "dump the metrics registry (counters/gauges/histograms) on exit"},
    {"--help", nullptr, "print this message"},
};

void PrintUsage(FILE* out, const char* argv0) {
  std::fprintf(out, "usage: %s [flags]\n", argv0);
  const std::string backends = BackendKindList();
  const std::string priorities = PriorityList();
  for (const FlagDoc& doc : kFlagDocs) {
    const char* value = doc.value;
    if (value == nullptr && std::strcmp(doc.name, "--backend") == 0) {
      value = backends.c_str();
    }
    if (value == nullptr && std::strcmp(doc.name, "--priority") == 0) {
      value = priorities.c_str();
    }
    std::string flag = doc.name;
    if (value != nullptr) {
      flag += "=";
      flag += value;
    }
    std::fprintf(out, "  %-42s %s\n", flag.c_str(), doc.help);
  }
  std::fprintf(out,
               "--backend=rpc dispatches worker tasks to mpqopt_worker "
               "server\nprocesses at the --workers-addr endpoints.\n");
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '\0') {
    *value = "";
    return true;
  }
  if (arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

bool ParseArgs(int argc, char** argv, CliOptions* opts) {
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "--tables", &v)) {
      opts->tables = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--shape", &v)) {
      if (v == "chain") {
        opts->shape = JoinGraphShape::kChain;
      } else if (v == "star") {
        opts->shape = JoinGraphShape::kStar;
      } else if (v == "cycle") {
        opts->shape = JoinGraphShape::kCycle;
      } else if (v == "clique") {
        opts->shape = JoinGraphShape::kClique;
      } else {
        return false;
      }
    } else if (ParseFlag(argv[i], "--space", &v)) {
      if (v == "linear") {
        opts->space = PlanSpace::kLinear;
      } else if (v == "bushy") {
        opts->space = PlanSpace::kBushy;
      } else {
        return false;
      }
    } else if (ParseFlag(argv[i], "--workers", &v)) {
      char* end = nullptr;
      opts->workers = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') {
        std::fprintf(stderr, "invalid --workers value: %s\n", v.c_str());
        return false;
      }
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      opts->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--objective", &v)) {
      if (v == "time") {
        opts->objective = Objective::kTime;
      } else if (v == "mo") {
        opts->objective = Objective::kTimeAndBuffer;
      } else {
        return false;
      }
    } else if (ParseFlag(argv[i], "--alpha", &v)) {
      opts->alpha = std::atof(v.c_str());
    } else if (ParseFlag(argv[i], "--variant", &v)) {
      opts->variant = v;
    } else if (ParseFlag(argv[i], "--parametric-table", &v)) {
      opts->parametric_table = std::atoi(v.c_str());
    } else if (ParseFlag(argv[i], "--backend", &v)) {
      StatusOr<BackendKind> kind = ParseBackendKind(v);
      if (!kind.ok()) {
        std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
        return false;
      }
      opts->backend = kind.value();
    } else if (ParseFlag(argv[i], "--workers-addr", &v)) {
      opts->workers_addr = v;
    } else if (ParseFlag(argv[i], "--worker-retries", &v)) {
      opts->worker_retries = std::atoi(v.c_str());
      if (opts->worker_retries < 0) {
        std::fprintf(stderr, "--worker-retries must be >= 0\n");
        return false;
      }
    } else if (ParseFlag(argv[i], "--worker-backoff-ms", &v)) {
      opts->worker_backoff_ms = std::atoi(v.c_str());
      if (opts->worker_backoff_ms < 0) {
        std::fprintf(stderr, "--worker-backoff-ms must be >= 0\n");
        return false;
      }
    } else if (ParseFlag(argv[i], "--concurrent-queries", &v)) {
      opts->concurrent_queries = std::atoi(v.c_str());
      if (opts->concurrent_queries < 1) {
        std::fprintf(stderr, "--concurrent-queries must be >= 1\n");
        return false;
      }
    } else if (ParseFlag(argv[i], "--unique-queries", &v)) {
      opts->unique_queries = std::atoi(v.c_str());
      opts->serving_flags_used = true;
      if (opts->unique_queries < 0) {
        std::fprintf(stderr, "--unique-queries must be >= 0\n");
        return false;
      }
    } else if (ParseFlag(argv[i], "--plan-cache-mb", &v)) {
      opts->plan_cache_mb = std::atoi(v.c_str());
      opts->serving_flags_used = true;
      if (opts->plan_cache_mb < 1) {
        std::fprintf(stderr, "--plan-cache-mb must be >= 1\n");
        return false;
      }
    } else if (ParseFlag(argv[i], "--plan-cache-ttl", &v)) {
      opts->plan_cache_ttl = std::atof(v.c_str());
      opts->serving_flags_used = true;
    } else if (ParseFlag(argv[i], "--plan-cache", &v)) {
      opts->plan_cache = true;
      opts->serving_flags_used = true;
    } else if (ParseFlag(argv[i], "--admission", &v)) {
      opts->admission = true;
      opts->serving_flags_used = true;
    } else if (ParseFlag(argv[i], "--tenant-rate", &v)) {
      opts->tenant_rate = std::atof(v.c_str());
      opts->serving_flags_used = true;
      if (opts->tenant_rate < 0) {
        std::fprintf(stderr, "--tenant-rate must be >= 0\n");
        return false;
      }
    } else if (ParseFlag(argv[i], "--tenant-burst", &v)) {
      opts->tenant_burst = std::atof(v.c_str());
      opts->serving_flags_used = true;
      if (opts->tenant_burst < 1) {
        std::fprintf(stderr, "--tenant-burst must be >= 1\n");
        return false;
      }
    } else if (ParseFlag(argv[i], "--priority", &v)) {
      StatusOr<Priority> priority = ParsePriority(v);
      opts->serving_flags_used = true;
      if (!priority.ok()) {
        std::fprintf(stderr, "%s\n", priority.status().ToString().c_str());
        return false;
      }
      opts->priority = priority.value();
    } else if (ParseFlag(argv[i], "--queue-depth", &v)) {
      opts->queue_depth = std::atoi(v.c_str());
      opts->serving_flags_used = true;
      if (opts->queue_depth < 0) {
        std::fprintf(stderr, "--queue-depth must be >= 0\n");
        return false;
      }
    } else if (ParseFlag(argv[i], "--coalesce", &v)) {
      opts->coalesce = true;
    } else if (ParseFlag(argv[i], "--trace-out", &v)) {
      opts->trace_out = v;
      opts->serving_flags_used = true;
      if (opts->trace_out.empty()) {
        std::fprintf(stderr, "--trace-out needs a path\n");
        return false;
      }
    } else if (ParseFlag(argv[i], "--slow-query-ms", &v)) {
      opts->slow_query_ms = std::atof(v.c_str());
      opts->serving_flags_used = true;
      if (opts->slow_query_ms < 0) {
        std::fprintf(stderr, "--slow-query-ms must be >= 0\n");
        return false;
      }
    } else if (ParseFlag(argv[i], "--telemetry-port", &v)) {
      opts->telemetry_port = std::atoi(v.c_str());
      opts->serving_flags_used = true;
      if (v.empty() || opts->telemetry_port < 0 ||
          opts->telemetry_port > 65535) {
        std::fprintf(stderr, "invalid --telemetry-port value: %s\n",
                     v.c_str());
        return false;
      }
    } else if (ParseFlag(argv[i], "--stall-watchdog-ms", &v)) {
      opts->stall_watchdog_ms = std::atoi(v.c_str());
      if (opts->stall_watchdog_ms < 0) {
        std::fprintf(stderr, "--stall-watchdog-ms must be >= 0\n");
        return false;
      }
    } else if (ParseFlag(argv[i], "--statz", &v)) {
      opts->statz = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      opts->help = true;
      return true;  // help wins over everything else on the line
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

int RunPqo(const Query& query, const CliOptions& cli) {
  PqoConfig config;
  config.space = cli.space;
  config.parametric_table = cli.parametric_table;
  const uint64_t m =
      UsableWorkers(query.num_tables(), cli.space, cli.workers);
  StatusOr<PqoResult> result = ParallelParametricOptimize(query, m, config);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("parametric optimal set over theta in [0,1] (%llu partitions):\n",
              static_cast<unsigned long long>(m));
  for (const PqoPlan& plan : result.value().plans) {
    std::printf("  [%.3f, %.3f)  cost = %.4g + %.4g*theta\n    %s\n",
                plan.theta_begin, plan.theta_end, plan.cost.constant,
                plan.cost.slope,
                PlanToString(result.value().arena, plan.plan).c_str());
  }
  return 0;
}

MpqOptions BuildMpqOptions(const CliOptions& cli) {
  MpqOptions opts;
  opts.space = cli.space;
  opts.objective = cli.objective;
  opts.alpha = cli.alpha;
  opts.interesting_orders = cli.variant == "io";
  opts.num_workers = cli.workers;
  return opts;
}

/// Builds the selected execution backend; for --backend=rpc this connects
/// to the --workers-addr endpoints and can fail.
StatusOr<std::shared_ptr<ExecutionBackend>> BuildBackend(
    const CliOptions& cli, const MpqOptions& opts) {
  BackendOptions backend_opts;
  backend_opts.network = opts.network;
  backend_opts.max_threads = opts.max_threads;
  backend_opts.workers_addr = cli.workers_addr;
  backend_opts.worker_retries = cli.worker_retries;
  backend_opts.worker_backoff_ms = cli.worker_backoff_ms;
  backend_opts.coalesce_scatter = cli.coalesce;
  return MakeBackend(cli.backend, backend_opts);
}

/// Prints the session-counters report line when any session activity
/// happened — zero-noise for the stateless variants. The single
/// formatter for both the single-query (BackendHealth) and serving
/// (ServiceStats) reports, so the two cannot drift.
void PrintSessionCounters(const SessionCounterSnapshot& sessions) {
  if (sessions.sessions_opened == 0 && sessions.sessions_failed == 0) return;
  std::printf("sessions           %llu opened, %llu rounds, %llu replicas "
              "recovered, %llu failed\n",
              static_cast<unsigned long long>(sessions.sessions_opened),
              static_cast<unsigned long long>(sessions.session_rounds),
              static_cast<unsigned long long>(sessions.sessions_recovered),
              static_cast<unsigned long long>(sessions.sessions_failed));
}

/// Serving mode: Q concurrently optimized queries multiplexed onto one
/// shared backend through the OptimizerService. With --unique-queries=U,
/// the Q queries cycle through U distinct shapes — the repeated-workload
/// axis the plan cache (--plan-cache) serves from memory.
int RunService(QueryGenerator* generator, const CliOptions& cli) {
  const int unique =
      cli.unique_queries > 0
          ? std::min(cli.unique_queries, cli.concurrent_queries)
          : cli.concurrent_queries;
  std::vector<Query> distinct;
  distinct.reserve(static_cast<size_t>(unique));
  for (int i = 0; i < unique; ++i) {
    distinct.push_back(generator->Generate(cli.tables));
  }
  std::vector<Query> queries;
  queries.reserve(static_cast<size_t>(cli.concurrent_queries));
  for (int i = 0; i < cli.concurrent_queries; ++i) {
    queries.push_back(distinct[static_cast<size_t>(i) % distinct.size()]);
  }
  const MpqOptions opts = BuildMpqOptions(cli);
  StatusOr<std::shared_ptr<ExecutionBackend>> backend =
      BuildBackend(cli, opts);
  if (!backend.ok()) {
    std::fprintf(stderr, "error: %s\n", backend.status().ToString().c_str());
    return 1;
  }
  // The telemetry server shares the service's backend so /healthz and
  // fleet /metrics see the same supervised workers the queries run on.
  std::shared_ptr<ExecutionBackend> shared_backend = backend.value();
  ServiceOptions service_opts;
  service_opts.backend = std::move(backend).value();
  service_opts.enable_plan_cache = cli.plan_cache;
  service_opts.plan_cache_bytes =
      static_cast<size_t>(cli.plan_cache_mb) << 20;
  service_opts.plan_cache_ttl_seconds = cli.plan_cache_ttl;
  service_opts.enable_admission = cli.admission;
  service_opts.admission.tenant_rate = cli.tenant_rate;
  service_opts.admission.tenant_burst = cli.tenant_burst;
  service_opts.admission.queue_depth = cli.queue_depth;
  obs::TraceCollectorOptions trace_opts;
  trace_opts.chrome_out_path = cli.trace_out;
  trace_opts.slow_query_ms = cli.slow_query_ms;
  obs::TraceCollector collector(trace_opts);
  const bool tracing = !cli.trace_out.empty() || cli.slow_query_ms > 0;
  if (tracing) service_opts.trace_collector = &collector;
  OptimizerService service(service_opts);
  std::unique_ptr<obs::TelemetryServer> telemetry;
  if (cli.telemetry_port >= 0) {
    obs::TelemetryOptions topts;
    topts.port = cli.telemetry_port;
    topts.backend = shared_backend;
    StatusOr<std::unique_ptr<obs::TelemetryServer>> server =
        obs::TelemetryServer::Start(std::move(topts));
    if (!server.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   server.status().ToString().c_str());
      return 1;
    }
    telemetry = std::move(server).value();
    std::printf("telemetry          http://127.0.0.1:%d/metrics\n",
                telemetry->port());
    std::fflush(stdout);
  }
  RequestContext ctx;
  ctx.priority = cli.priority;
  const BatchReport report = service.OptimizeBatch(queries, opts, ctx);

  std::printf("service backend    %s\n", service.backend().name());
  for (size_t i = 0; i < report.results.size(); ++i) {
    const StatusOr<MpqResult>& r = report.results[i];
    if (!r.ok()) {
      std::printf("query %-3zu          error: %s\n", i,
                  r.status().ToString().c_str());
      continue;
    }
    std::printf(
        "query %-3zu          cost %.6g, cluster %.2f ms, latency %.2f ms%s\n",
        i, r.value().arena.node(r.value().best[0]).cost.time(),
        r.value().simulated_seconds * 1e3, report.latency_seconds[i] * 1e3,
        r.value().from_plan_cache ? " (cached)" : "");
  }
  std::printf("batch wall         %.2f ms\n", report.wall_seconds * 1e3);
  std::printf("throughput         %.1f queries/s\n",
              report.queries_per_second);
  {
    std::vector<double> latencies_ms;
    latencies_ms.reserve(report.latency_seconds.size());
    for (const double s : report.latency_seconds) {
      latencies_ms.push_back(s * 1e3);
    }
    std::printf("latency            p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n",
                obs::Percentile(latencies_ms, 50),
                obs::Percentile(latencies_ms, 95),
                obs::Percentile(latencies_ms, 99));
  }
  const ServiceStats stats = service.stats();
  std::printf("completed/failed   %llu / %llu\n",
              static_cast<unsigned long long>(stats.queries_completed),
              static_cast<unsigned long long>(stats.queries_failed));
  SessionCounterSnapshot sessions;
  sessions.sessions_opened = stats.sessions_opened;
  sessions.session_rounds = stats.session_rounds;
  sessions.sessions_recovered = stats.sessions_recovered;
  sessions.sessions_failed = stats.sessions_failed;
  PrintSessionCounters(sessions);
  if (cli.admission) {
    std::printf("admission          %llu admitted (as %s), %llu over quota, "
                "%llu shed at full queue, %llu timed out\n",
                static_cast<unsigned long long>(stats.admitted),
                PriorityName(cli.priority),
                static_cast<unsigned long long>(stats.rejected_quota),
                static_cast<unsigned long long>(stats.rejected_queue),
                static_cast<unsigned long long>(stats.admission_timed_out));
  }
  if (stats.scatter_batches > 0) {
    std::printf("scatter coalescing %llu task requests rode %llu batch "
                "frames\n",
                static_cast<unsigned long long>(stats.tasks_coalesced),
                static_cast<unsigned long long>(stats.scatter_batches));
  }
  if (cli.plan_cache) {
    std::printf("plan cache         %llu hits / %llu misses / %llu evictions"
                " (capacity %llu / ttl %llu / invalidated %llu)\n",
                static_cast<unsigned long long>(stats.cache_hits),
                static_cast<unsigned long long>(stats.cache_misses),
                static_cast<unsigned long long>(stats.cache_evictions),
                static_cast<unsigned long long>(stats.cache_evictions_capacity),
                static_cast<unsigned long long>(stats.cache_evictions_ttl),
                static_cast<unsigned long long>(
                    stats.cache_evictions_invalidated));
  }
  if (!stats.workers.empty()) {
    size_t healthy = 0, suspect = 0, dead = 0;
    for (const WorkerHealthSnapshot& w : stats.workers) {
      healthy += w.health == WorkerHealth::kHealthy;
      suspect += w.health == WorkerHealth::kSuspect;
      dead += w.health == WorkerHealth::kDead;
    }
    std::printf("worker health      %zu healthy / %zu suspect / %zu dead; "
                "%llu/%llu reconnects; %llu tasks re-scattered in %llu "
                "rounds\n",
                healthy, suspect, dead,
                static_cast<unsigned long long>(stats.worker_reconnects),
                static_cast<unsigned long long>(
                    stats.worker_reconnect_attempts),
                static_cast<unsigned long long>(stats.tasks_rescattered),
                static_cast<unsigned long long>(stats.rounds_recovered));
    for (const WorkerHealthSnapshot& w : stats.workers) {
      std::printf("  %-18s %s (%llu reconnects, %llu io failures%s%s)\n",
                  w.endpoint.c_str(), WorkerHealthName(w.health),
                  static_cast<unsigned long long>(w.reconnects),
                  static_cast<unsigned long long>(w.io_failures),
                  w.last_error.empty() ? "" : "; last: ",
                  w.last_error.c_str());
    }
  }
  if (!cli.trace_out.empty()) {
    const Status written = collector.WriteChromeTrace();
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("trace              %zu query traces -> %s "
                "(chrome://tracing)\n",
                collector.collected(), cli.trace_out.c_str());
  }
  return stats.queries_failed == 0 ? 0 : 1;
}

/// --variant=sma: the per-level broadcast baseline. Runs through the
/// session protocol, so every backend — including rpc — hosts the
/// per-node memo replicas.
int RunSma(const Query& query, const CliOptions& cli) {
  const MpqOptions backend_opts_source = BuildMpqOptions(cli);
  StatusOr<std::shared_ptr<ExecutionBackend>> backend =
      BuildBackend(cli, backend_opts_source);
  if (!backend.ok()) {
    std::fprintf(stderr, "error: %s\n", backend.status().ToString().c_str());
    return 1;
  }
  SmaOptions opts;
  opts.space = cli.space;
  opts.objective = cli.objective;
  opts.alpha = cli.alpha;
  opts.num_workers = cli.workers;
  opts.backend = std::move(backend).value();
  StatusOr<SmaResult> result = SmaOptimize(query, opts);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  const SmaResult& r = result.value();
  std::printf("workers            %llu (backend: %s, variant: sma)\n",
              static_cast<unsigned long long>(opts.num_workers),
              BackendKindName(cli.backend));
  std::printf("cluster time       %.2f ms (W-time %.2f ms)\n",
              r.simulated_seconds * 1e3, r.max_worker_seconds * 1e3);
  std::printf("memo relations     %lld per worker (full replica)\n",
              static_cast<long long>(r.max_worker_memo_sets));
  std::printf("rounds             %d (one per level)\n", r.rounds);
  std::printf("network            %llu bytes in %llu messages\n",
              static_cast<unsigned long long>(r.network_bytes),
              static_cast<unsigned long long>(r.network_messages));
  PrintSessionCounters(opts.backend->health().sessions);
  if (cli.objective == Objective::kTime) {
    std::printf("best plan          %s\n",
                PlanToString(r.arena, r.best[0]).c_str());
    std::printf("estimated cost     %.6g work units\n",
                r.arena.node(r.best[0]).cost.time());
  } else {
    std::printf("Pareto frontier    %zu plans (alpha = %g)\n", r.best.size(),
                cli.alpha);
    for (PlanId id : r.best) {
      std::printf("  time %.6g  buffer %.6g\n", r.arena.node(id).cost[0],
                  r.arena.node(id).cost[1]);
    }
  }
  return 0;
}

int RunMpq(const Query& query, const CliOptions& cli) {
  MpqOptions opts = BuildMpqOptions(cli);
  StatusOr<std::shared_ptr<ExecutionBackend>> backend =
      BuildBackend(cli, opts);
  if (!backend.ok()) {
    std::fprintf(stderr, "error: %s\n", backend.status().ToString().c_str());
    return 1;
  }
  opts.backend = std::move(backend).value();
  if (opts.interesting_orders && opts.objective != Objective::kTime) {
    std::fprintf(stderr, "interesting orders require --objective=time\n");
    return 1;
  }
  MpqOptimizer mpq(opts);
  StatusOr<MpqResult> result = mpq.Optimize(query);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  const MpqResult& r = result.value();
  std::printf("workers            %llu (backend: %s)\n",
              static_cast<unsigned long long>(opts.num_workers),
              BackendKindName(cli.backend));
  std::printf("cluster time       %.2f ms (W-time %.2f ms)\n",
              r.simulated_seconds * 1e3, r.max_worker_seconds * 1e3);
  std::printf("memo relations     %lld per worker (max)\n",
              static_cast<long long>(r.max_worker_memo_sets));
  std::printf("network            %llu bytes in %llu messages\n",
              static_cast<unsigned long long>(r.network_bytes),
              static_cast<unsigned long long>(r.network_messages));
  if (opts.objective == Objective::kTime) {
    std::printf("best plan          %s\n",
                PlanToString(r.arena, r.best[0]).c_str());
    std::printf("estimated cost     %.6g work units\n",
                r.arena.node(r.best[0]).cost.time());
  } else {
    std::printf("Pareto frontier    %zu plans (alpha = %g)\n", r.best.size(),
                cli.alpha);
    for (PlanId id : r.best) {
      std::printf("  time %.6g  buffer %.6g\n", r.arena.node(id).cost[0],
                  r.arena.node(id).cost[1]);
    }
  }
  return 0;
}

int Main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) {
    PrintUsage(stderr, argv[0]);
    return 2;
  }
  if (cli.help) {
    PrintUsage(stdout, argv[0]);
    return 0;
  }
  // Reject unusable worker counts up front instead of silently rounding:
  // MPQ requires a power of two not exceeding the maximal parallelism of
  // the query (the pqo variant rounds internally and is exempt, and SMA
  // deals its level chunks round-robin to ANY m >= 1).
  if (cli.variant != "pqo" && cli.variant != "sma") {
    const Status workers_ok =
        ValidateNumWorkers(cli.workers, cli.tables, cli.space);
    if (!workers_ok.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   workers_ok.ToString().c_str());
      return 2;
    }
  }
  // SIGUSR1 dumps the flight recorder; a fatal MPQOPT_CHECK failure
  // dumps it automatically on the way down.
  obs::InstallFlightRecorderSignalDump();
  obs::InstallFlightRecorderFatalDump();
  if (cli.stall_watchdog_ms > 0) {
    obs::StallWatchdog::Global().Configure(cli.stall_watchdog_ms);
  }
  GeneratorOptions gen_opts;
  gen_opts.shape = cli.shape;
  QueryGenerator generator(gen_opts, cli.seed);
  const bool serving_mode = cli.concurrent_queries > 0 &&
                            cli.variant != "pqo" && cli.variant != "sma";
  if (cli.serving_flags_used && !serving_mode) {
    // Reject rather than silently ignore: a user benchmarking the plan
    // cache must not believe it was active when it never existed.
    std::fprintf(stderr,
                 "error: --plan-cache/--plan-cache-mb/--plan-cache-ttl/"
                 "--unique-queries/--admission/--tenant-rate/--tenant-burst/"
                 "--priority/--queue-depth/--telemetry-port require serving "
                 "mode (--concurrent-queries>=1, not --variant=pqo)\n");
    return 2;
  }
  // --statz dumps the process-global metrics registry on the way out,
  // whatever mode ran (round-time histograms fill in every mode; the
  // service/admission ones only in serving mode).
  int rc;
  if (serving_mode) {
    rc = RunService(&generator, cli);
  } else {
    const Query query = generator.Generate(cli.tables);
    std::printf("%s", query.ToString().c_str());
    std::printf("plan space         %s\n", PlanSpaceName(cli.space));
    if (cli.variant == "pqo") {
      rc = RunPqo(query, cli);
    } else if (cli.variant == "sma") {
      rc = RunSma(query, cli);
    } else {
      rc = RunMpq(query, cli);
    }
  }
  if (cli.statz) {
    std::printf("--- statz ---\n%s",
                obs::MetricsRegistry::Global().StatzDump().c_str());
  }
  return rc;
}

}  // namespace
}  // namespace mpqopt

int main(int argc, char** argv) { return mpqopt::Main(argc, argv); }
