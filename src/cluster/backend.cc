// Copyright 2026 mpqopt authors.

#include "cluster/backend.h"

#include <thread>

#include "cluster/async_batch_backend.h"
#include "cluster/rpc_backend.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace mpqopt {

void AccountRound(const NetworkModel& model,
                  const std::vector<size_t>& request_sizes,
                  RoundResult* result) {
  const size_t num_tasks = request_sizes.size();
  MPQOPT_CHECK_EQ(result->responses.size(), num_tasks);
  MPQOPT_CHECK_EQ(result->compute_seconds.size(), num_tasks);
  double slowest = 0;
  for (size_t i = 0; i < num_tasks; ++i) {
    result->traffic.Record(request_sizes[i]);
    result->traffic.Record(result->responses[i].size());
    const double worker_total = model.TransferTime(request_sizes[i]) +
                                result->compute_seconds[i] +
                                model.TransferTime(result->responses[i].size());
    if (worker_total > slowest) slowest = worker_total;
  }
  result->simulated_seconds =
      static_cast<double>(num_tasks) * model.task_setup_s + slowest;
  // Every backend (and session round) finishes through here with the
  // measured wall time already set, so this one histogram covers them all.
  static obs::Histogram* const round_ms =
      obs::MetricsRegistry::Global().GetHistogram(
          obs::kRoundTimeHistogram, obs::Histogram::LatencyBoundariesMs());
  round_ms->Record(result->wall_seconds * 1e3);
  obs::FlightRecorder::Global().Record(
      obs::FlightEventKind::kRoundFinish, "%zu tasks, %.3f ms wall",
      num_tasks, result->wall_seconds * 1e3);
}

void ExecutionBackend::FinalizeRound(
    const std::vector<std::vector<uint8_t>>& requests,
    RoundResult* result) const {
  std::vector<size_t> sizes;
  sizes.reserve(requests.size());
  for (const std::vector<uint8_t>& request : requests) {
    sizes.push_back(request.size());
  }
  AccountRound(model_, sizes, result);
}

BackendHealth ExecutionBackend::health() const {
  BackendHealth health;
  FillSessionCounters(&health);
  return health;
}

std::vector<obs::WorkerStatsSample> ExecutionBackend::PollWorkerStats() {
  return {};
}

void ExecutionBackend::FillSessionCounters(BackendHealth* health) const {
  health->sessions.sessions_opened =
      session_counters_.opened.load(std::memory_order_relaxed);
  health->sessions.session_rounds =
      session_counters_.rounds.load(std::memory_order_relaxed);
  health->sessions.sessions_recovered =
      session_counters_.recovered.load(std::memory_order_relaxed);
  health->sessions.sessions_failed =
      session_counters_.failed.load(std::memory_order_relaxed);
}

namespace {

// The single source of truth for backend naming: BackendKindName,
// ParseBackendKind (canonical name or alias), and BackendKindList are all
// generated from this table, so adding a kind here updates the CLI
// surface, help text, and error messages together.
struct BackendNameEntry {
  BackendKind kind;
  const char* canonical;
  const char* alias;  // accepted on parse, never printed
};

constexpr BackendNameEntry kBackendNames[] = {
    {BackendKind::kAsyncBatch, "async", "async-batch"},
    {BackendKind::kRpc, "rpc", "remote"},
};

/// `max_threads`, or hardware concurrency (at least 1) when it is <= 0.
int ResolveThreads(int max_threads) {
  if (max_threads > 0) return max_threads;
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return cores > 0 ? cores : 1;
}

}  // namespace

const char* WorkerHealthName(WorkerHealth health) {
  switch (health) {
    case WorkerHealth::kHealthy:
      return "healthy";
    case WorkerHealth::kSuspect:
      return "suspect";
    case WorkerHealth::kDead:
      return "dead";
  }
  return "unknown";
}

const char* BackendKindName(BackendKind kind) {
  for (const BackendNameEntry& entry : kBackendNames) {
    if (entry.kind == kind) return entry.canonical;
  }
  return "unknown";
}

StatusOr<BackendKind> ParseBackendKind(const std::string& name) {
  for (const BackendNameEntry& entry : kBackendNames) {
    if (name == entry.canonical || name == entry.alias) return entry.kind;
  }
  return Status::InvalidArgument("unknown backend '" + name + "' (expected " +
                                 BackendKindList() + ")");
}

std::string BackendKindList() {
  std::string joined;
  for (const BackendNameEntry& entry : kBackendNames) {
    if (!joined.empty()) joined += "|";
    joined += entry.canonical;
  }
  return joined;
}

StatusOr<std::shared_ptr<ExecutionBackend>> MakeBackend(
    BackendKind kind, const BackendOptions& options) {
  switch (kind) {
    case BackendKind::kAsyncBatch:
      return std::shared_ptr<ExecutionBackend>(
          std::make_shared<AsyncBatchBackend>(
              options.network, ResolveThreads(options.max_threads)));
    case BackendKind::kRpc: {
      const std::vector<std::string> endpoints =
          SplitEndpoints(options.workers_addr);
      if (endpoints.empty()) {
        return Status::InvalidArgument(
            "rpc backend requires worker endpoints "
            "(--workers-addr=host:port[,host:port...])");
      }
      SupervisorOptions supervision;
      supervision.connect_timeout_ms = options.connect_timeout_ms;
      supervision.io_timeout_ms = options.io_timeout_ms;
      supervision.max_redials = options.worker_retries;
      supervision.backoff_initial_ms = options.worker_backoff_ms;
      supervision.backoff_max_ms = options.worker_backoff_max_ms;
      StatusOr<std::shared_ptr<RpcBackend>> backend =
          RpcBackend::Connect(options.network, endpoints, supervision,
                              options.coalesce_scatter);
      if (!backend.ok()) return backend.status();
      return std::shared_ptr<ExecutionBackend>(std::move(backend).value());
    }
  }
  return Status::InvalidArgument("unhandled backend kind " +
                                 std::to_string(static_cast<int>(kind)));
}

std::shared_ptr<ExecutionBackend> MakeBackend(BackendKind kind,
                                              NetworkModel model,
                                              int max_threads) {
  BackendOptions options;
  options.network = model;
  options.max_threads = max_threads;
  StatusOr<std::shared_ptr<ExecutionBackend>> backend =
      MakeBackend(kind, options);
  // Only the in-process kind may take this path (see header); its
  // construction cannot fail.
  MPQOPT_CHECK(backend.ok());
  return std::move(backend).value();
}

std::shared_ptr<ExecutionBackend> MakeDefaultBackend(NetworkModel model,
                                                     int max_threads) {
  // The submitter drains its own round, so one thread fewer helps it.
  return std::make_shared<AsyncBatchBackend>(model,
                                             ResolveThreads(max_threads) - 1);
}

}  // namespace mpqopt
