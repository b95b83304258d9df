// Copyright 2026 mpqopt authors.

#include "sma/sma.h"

#include <bit>
#include <chrono>
#include <memory>
#include <utility>

#include "cluster/session/session.h"
#include "cluster/session/stateful_task.h"
#include "common/serialize.h"
#include "sma/sma_node.h"

namespace mpqopt {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Next k-combination of bits (Gosper's hack).
uint64_t NextCombination(uint64_t v) {
  const uint64_t t = v | (v - 1);
  return (t + 1) | (((~t & -(~t)) - 1) >> (std::countr_zero(v) + 1));
}

double MaxOf(const std::vector<double>& values) {
  double max = 0;
  for (double v : values) {
    if (v > max) max = v;
  }
  return max;
}

}  // namespace

StatusOr<SmaResult> SmaOptimize(const Query& query, const SmaOptions& options) {
  Status valid = query.Validate();
  if (!valid.ok()) return valid;
  const int n = query.num_tables();
  if (n > options.max_tables) {
    return Status::OutOfRange(
        "SMA replicates the full memo per worker; query too large");
  }
  const uint64_t m = options.num_workers;
  if (m < 1) {
    return Status::InvalidArgument("num_workers must be at least 1");
  }
  std::shared_ptr<ExecutionBackend> backend = options.backend;
  if (backend == nullptr) {
    backend = MakeDefaultBackend(options.network, /*max_threads=*/1);
  }
  const NetworkModel& net = backend->network();

  SmaResult result;
  result.max_worker_memo_sets = int64_t{1} << n;

  const auto total_start = Clock::now();

  // Round 0: ship the query (with statistics and the plan-affecting
  // options) to every worker node — the session open request each
  // replica is built from.
  SmaNodeOptions node_options;
  node_options.space = options.space;
  node_options.objective = options.objective;
  node_options.alpha = options.alpha;
  node_options.cost_options = options.cost_options;
  const std::vector<uint8_t> open_request =
      SmaNode::BuildOpenRequest(query, node_options);
  for (uint64_t i = 0; i < m; ++i) {
    result.network_bytes += open_request.size();
    ++result.network_messages;
  }
  result.simulated_seconds += static_cast<double>(m) * net.task_setup_s +
                              net.TransferTime(open_request.size());

  // The worker replicas live wherever the backend hosts sessions: in
  // this process for the in-process backends (the replica state stays in
  // the task closures, as before), in remote mpqopt_worker processes for
  // the rpc backend (cluster/session/). The master additionally keeps
  // its own replica — it applies every broadcast locally and the final
  // plan is extracted from it, so extraction never crosses the wire.
  StatusOr<std::unique_ptr<SessionHandle>> session_or = backend->OpenSession(
      StatefulTaskKind::kSmaNode,
      std::vector<std::vector<uint8_t>>(m, open_request));
  if (!session_or.ok()) return session_or.status();
  std::unique_ptr<SessionHandle> session = std::move(session_or).value();
  SmaNode master_replica(query, node_options);
  std::vector<double> node_seconds(m, 0.0);

  if (n >= 2) {
    for (int k = 2; k <= n; ++k) {
      ++result.rounds;
      // Master: enumerate the level's table sets and deal them
      // round-robin into per-node compute-chunk step requests.
      std::vector<std::vector<uint8_t>> step_requests(m);
      {
        std::vector<std::vector<uint64_t>> chunks(m);
        uint64_t v = (uint64_t{1} << k) - 1;
        const uint64_t limit = uint64_t{1} << n;
        uint64_t idx = 0;
        while (v < limit) {
          chunks[idx % m].push_back(v);
          ++idx;
          v = NextCombination(v);
        }
        for (uint64_t i = 0; i < m; ++i) {
          ByteWriter writer;
          writer.WriteU8(kSmaComputeChunkOp);
          writer.WriteU32(static_cast<uint32_t>(chunks[i].size()));
          for (uint64_t bits : chunks[i]) writer.WriteU64(bits);
          step_requests[i] = writer.Release();
        }
      }

      // Workers compute their chunks against their replicas (one session
      // round per level — SMA's defining many-rounds-per-query
      // behaviour); per-node compute is measured individually, transfers
      // are modeled from the true byte counts by the shared accounting.
      StatusOr<RoundResult> round_or = session->Step(step_requests);
      if (!round_or.ok()) return round_or.status();
      RoundResult& round = round_or.value();
      for (uint64_t i = 0; i < m; ++i) {
        node_seconds[i] += round.compute_seconds[i];
      }
      result.network_bytes += round.traffic.bytes_sent;
      result.network_messages += round.traffic.messages;

      // Master: concatenate the level's entries and broadcast to all
      // workers — the shared memotable emulated over the network.
      ByteWriter broadcast_writer;
      broadcast_writer.WriteU8(kSmaApplyBroadcastOp);
      std::vector<uint8_t> broadcast = broadcast_writer.Release();
      for (const auto& r : round.responses) {
        broadcast.insert(broadcast.end(), r.begin(), r.end());
      }
      StatusOr<RoundResult> bcast_or = session->Broadcast(broadcast);
      if (!bcast_or.ok()) return bcast_or.status();
      const RoundResult& bcast = bcast_or.value();
      for (uint64_t i = 0; i < m; ++i) {
        node_seconds[i] += bcast.compute_seconds[i];
      }
      result.network_bytes += bcast.traffic.bytes_sent;
      result.network_messages += bcast.traffic.messages;
      Status s = master_replica.ApplyBroadcast(broadcast.data() + 1,
                                               broadcast.size() - 1);
      if (!s.ok()) return s;

      // Level completion: per-task dispatch + slowest compute path (both
      // in round.simulated_seconds) + the master pushing m broadcast
      // copies through its ONE uplink — serialized, the baseline's
      // bottleneck — + the slowest apply.
      result.simulated_seconds +=
          round.simulated_seconds +
          static_cast<double>(m) * net.TransferTime(broadcast.size()) +
          MaxOf(bcast.compute_seconds);
    }
  }
  session->Close();

  // Extract the final plan(s) from the master's replica.
  const auto extract_start = Clock::now();
  const TableSet all = query.all_tables();
  if (options.objective == Objective::kTime) {
    result.best.push_back(master_replica.Build(all, &result.arena));
  } else {
    const size_t frontier = master_replica.FrontierSize(all);
    for (uint32_t i = 0; i < frontier; ++i) {
      result.best.push_back(master_replica.BuildMo(all, i, &result.arena));
    }
  }
  const auto total_end = Clock::now();
  result.master_seconds = Seconds(extract_start, total_end);
  result.simulated_seconds += result.master_seconds;
  result.wall_seconds = Seconds(total_start, total_end);
  result.max_worker_seconds = MaxOf(node_seconds);
  return result;
}

}  // namespace mpqopt
