// Copyright 2026 mpqopt authors.

#include "mpq/mpq.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/serialize.h"
#include "obs/trace.h"
#include "optimizer/pruning.h"
#include "plan/plan_serde.h"

namespace mpqopt {
namespace {

/// Response trailer carried back from each worker alongside its plans.
struct WorkerReport {
  uint64_t admissible_sets = 0;
  uint64_t splits_tried = 0;
  uint64_t plans_costed = 0;
  double seconds = 0;
};

void SerializeReport(const WorkerReport& r, ByteWriter* writer) {
  writer->WriteU64(r.admissible_sets);
  writer->WriteU64(r.splits_tried);
  writer->WriteU64(r.plans_costed);
  writer->WriteDouble(r.seconds);
}

Status DeserializeReport(ByteReader* reader, WorkerReport* r) {
  Status s;
  if (!(s = reader->ReadU64(&r->admissible_sets)).ok()) return s;
  if (!(s = reader->ReadU64(&r->splits_tried)).ok()) return s;
  if (!(s = reader->ReadU64(&r->plans_costed)).ok()) return s;
  return reader->ReadDouble(&r->seconds);
}

/// One worker response after decoding — the unit of the sharded finalize.
/// Each shard decodes into its own arena, so the decode stage shares no
/// mutable state across threads; the prune then walks the shards in
/// partition order (ParetoInsert is order-dependent, so the merge must
/// see the plans in exactly the sequence the serial pass would).
struct DecodedResponse {
  WorkerReport report;
  PlanArena arena;
  std::vector<PlanId> plans;
  Status status = Status::OK();
};

/// A plan reference across shards: partition index + id in its arena.
struct ShardPlanRef {
  uint32_t part = 0;
  PlanId id = kInvalidPlanId;
};

}  // namespace

MpqOptimizer::MpqOptimizer(MpqOptions options) : options_(std::move(options)) {
  if (options_.backend == nullptr) {
    options_.backend =
        MakeDefaultBackend(options_.network, options_.max_threads);
  }
}

namespace {

/// The request fields after the partition id — identical for every
/// partition of one run, so BuildRequests serializes them once.
void SerializeOptionsTail(const MpqOptions& options, ByteWriter* writer) {
  writer->WriteU64(options.num_workers);
  writer->WriteU8(static_cast<uint8_t>(options.space));
  writer->WriteU8(static_cast<uint8_t>(options.objective));
  writer->WriteU8(options.interesting_orders ? 1 : 0);
  writer->WriteDouble(options.alpha);
  writer->WriteDouble(options.cost_options.block_size);
  writer->WriteDouble(options.cost_options.hash_constant);
  writer->WriteDouble(options.cost_options.output_cost_factor);
  writer->WriteU64(static_cast<uint64_t>(options.max_memo_entries));
}

}  // namespace

std::vector<uint8_t> MpqOptimizer::BuildRequest(const Query& query,
                                                uint64_t partition_id,
                                                const MpqOptions& options) {
  ByteWriter writer;
  query.Serialize(&writer);
  writer.WriteU64(partition_id);
  SerializeOptionsTail(options, &writer);
  return writer.Release();
}

std::vector<std::vector<uint8_t>> MpqOptimizer::BuildRequests(
    const Query& query, const MpqOptions& options) {
  const uint64_t m = options.num_workers;
  // Serialize the shared parts once; each request is then one pre-sized
  // buffer filled by two splices and the partition id — the query (the
  // dominant cost for real statistics) is encoded once per run instead
  // of once per partition.
  ByteWriter prefix_writer;
  query.Serialize(&prefix_writer);
  const std::vector<uint8_t>& prefix = prefix_writer.buffer();
  ByteWriter suffix_writer;
  SerializeOptionsTail(options, &suffix_writer);
  const std::vector<uint8_t>& suffix = suffix_writer.buffer();

  std::vector<std::vector<uint8_t>> requests(m);
  for (uint64_t part = 0; part < m; ++part) {
    std::vector<uint8_t>& out = requests[part];
    out.reserve(prefix.size() + sizeof(uint64_t) + suffix.size());
    ByteWriter writer(&out);
    writer.WriteBytes(prefix.data(), prefix.size());
    writer.WriteU64(part);
    writer.WriteBytes(suffix.data(), suffix.size());
  }
  return requests;
}

StatusOr<std::vector<uint8_t>> MpqOptimizer::WorkerMain(
    const std::vector<uint8_t>& request) {
  ByteReader reader(request);
  StatusOr<Query> query = Query::Deserialize(&reader);
  if (!query.ok()) return query.status();

  uint64_t partition_id = 0;
  uint64_t num_partitions = 0;
  uint8_t space_raw = 0;
  uint8_t objective_raw = 0;
  uint8_t interesting_orders = 0;
  DpConfig config;
  Status s;
  if (!(s = reader.ReadU64(&partition_id)).ok()) return s;
  if (!(s = reader.ReadU64(&num_partitions)).ok()) return s;
  if (!(s = reader.ReadU8(&space_raw)).ok()) return s;
  if (!(s = reader.ReadU8(&objective_raw)).ok()) return s;
  if (!(s = reader.ReadU8(&interesting_orders)).ok()) return s;
  if (!(s = reader.ReadDouble(&config.alpha)).ok()) return s;
  if (!(s = reader.ReadDouble(&config.cost_options.block_size)).ok()) return s;
  if (!(s = reader.ReadDouble(&config.cost_options.hash_constant)).ok()) {
    return s;
  }
  if (!(s = reader.ReadDouble(&config.cost_options.output_cost_factor)).ok()) {
    return s;
  }
  uint64_t max_memo = 0;
  if (!(s = reader.ReadU64(&max_memo)).ok()) return s;
  if (space_raw > 1) return Status::Corruption("bad plan space tag");
  if (objective_raw > 1) return Status::Corruption("bad objective tag");
  config.space = static_cast<PlanSpace>(space_raw);
  config.objective = static_cast<Objective>(objective_raw);
  config.interesting_orders = interesting_orders != 0;
  config.max_memo_entries = static_cast<int64_t>(max_memo);

  // Decode the partition id into this worker's join-order constraints
  // (paper Algorithm 3) and run the constrained DP (Algorithm 2).
  StatusOr<ConstraintSet> constraints = ConstraintSet::FromPartitionId(
      query.value().num_tables(), config.space, partition_id, num_partitions);
  if (!constraints.ok()) return constraints.status();
  StatusOr<DpResult> dp =
      RunPartitionDp(query.value(), constraints.value(), config);
  if (!dp.ok()) return dp.status();
  const DpResult& result = dp.value();

  ByteWriter writer;
  WorkerReport report;
  report.admissible_sets = static_cast<uint64_t>(result.stats.admissible_sets);
  report.splits_tried = static_cast<uint64_t>(result.stats.splits_tried);
  report.plans_costed = static_cast<uint64_t>(result.stats.plans_costed);
  report.seconds = result.stats.seconds;
  SerializeReport(report, &writer);
  SerializePlanSet(result.arena, result.best, &writer);
  return writer.Release();
}

StatusOr<MpqResult> MpqOptimizer::FinalizeResponses(
    const std::vector<std::vector<uint8_t>>& responses,
    const MpqOptions& options) {
  const size_t m = responses.size();

  // Decode stage — sharded. Every response decodes into its own arena,
  // so shards are fully independent; a small pool strip-mines them via
  // an atomic cursor. finalize_threads = 1 (or m = 1) degenerates to the
  // serial loop with zero thread overhead.
  std::vector<DecodedResponse> decoded(m);
  const auto decode_one = [&](size_t part) {
    DecodedResponse& d = decoded[part];
    ByteReader reader(responses[part]);
    d.status = DeserializeReport(&reader, &d.report);
    if (!d.status.ok()) return;
    StatusOr<std::vector<PlanId>> plans = DeserializePlanSet(&reader, &d.arena);
    if (!plans.ok()) {
      d.status = plans.status();
      return;
    }
    d.plans = std::move(plans).value();
  };
  size_t threads = options.finalize_threads > 0
                       ? static_cast<size_t>(options.finalize_threads)
                       : std::max<size_t>(std::thread::hardware_concurrency(), 1);
  threads = std::min(threads, m);
  if (threads <= 1) {
    for (size_t part = 0; part < m; ++part) decode_one(part);
  } else {
    std::atomic<size_t> cursor{0};
    const auto drain = [&]() {
      for (;;) {
        const size_t part = cursor.fetch_add(1, std::memory_order_relaxed);
        if (part >= m) return;
        decode_one(part);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t t = 0; t < threads; ++t) pool.emplace_back(drain);
    for (std::thread& t : pool) t.join();
  }
  // Deterministic error reporting: the first failing partition wins,
  // exactly as the serial pass would have reported it.
  for (size_t part = 0; part < m; ++part) {
    if (!decoded[part].status.ok()) return decoded[part].status;
  }

  // Merge stage — serial, in partition order. ParetoInsert is
  // order-dependent (alpha-dominance rejection, then weak-dominance
  // eviction, then append), so the prune must see the plans in exactly
  // the sequence the serial pass would; only the decode above is
  // parallel.
  MpqResult result;
  result.worker_seconds.resize(m);
  result.worker_memo_sets.resize(m);
  std::vector<ShardPlanRef> winners;
  const auto cost_of = [&](const ShardPlanRef& ref) -> const CostVector& {
    return decoded[ref.part].arena.node(ref.id).cost;
  };
  for (size_t part = 0; part < m; ++part) {
    const DecodedResponse& d = decoded[part];
    result.worker_seconds[part] = d.report.seconds;
    result.worker_memo_sets[part] =
        static_cast<int64_t>(d.report.admissible_sets);
    result.total_splits += static_cast<int64_t>(d.report.splits_tried);
    result.total_plans_costed += static_cast<int64_t>(d.report.plans_costed);
    if (d.report.seconds > result.max_worker_seconds) {
      result.max_worker_seconds = d.report.seconds;
    }
    if (result.worker_memo_sets[part] > result.max_worker_memo_sets) {
      result.max_worker_memo_sets = result.worker_memo_sets[part];
    }

    // FinalPrune (paper Algorithm 1): compare partition-optimal plans.
    for (PlanId id : d.plans) {
      const ShardPlanRef ref{static_cast<uint32_t>(part), id};
      if (options.objective == Objective::kTime) {
        if (winners.empty() ||
            cost_of(ref).time() < cost_of(winners[0]).time()) {
          if (winners.empty()) {
            winners.push_back(ref);
          } else {
            winners[0] = ref;
          }
        }
      } else {
        ParetoInsert(&winners, ref, cost_of, options.alpha);
      }
    }
  }
  if (winners.empty()) {
    return Status::Internal("no plan returned by any worker");
  }
  // Materialize only the winning plans into the result arena (in
  // frontier order). The shards — and with them every losing plan — are
  // dropped wholesale, which also keeps plan-cache entries minimal.
  result.best.reserve(winners.size());
  for (const ShardPlanRef& ref : winners) {
    result.best.push_back(
        CopyPlan(decoded[ref.part].arena, ref.id, &result.arena));
  }
  return result;
}

StatusOr<MpqResult> MpqOptimizer::Optimize(const Query& query) {
  Status valid = query.Validate();
  if (!valid.ok()) return valid;
  const uint64_t m = options_.num_workers;
  valid = ValidateNumWorkers(m, query.num_tables(), options_.space);
  if (!valid.ok()) return valid;

  // Phase 1 (master): build the per-partition requests in one batch
  // (the query is serialized once, not once per partition).
  const auto serialize_start = std::chrono::steady_clock::now();
  std::vector<std::vector<uint8_t>> requests;
  {
    obs::Span serialize_span("mpq.serialize");
    requests = BuildRequests(query, options_);
  }
  const auto serialize_end = std::chrono::steady_clock::now();

  // Phase 2 (workers): one task per partition, no shared state.
  std::vector<WorkerTask> tasks(m, WorkerTask(&MpqOptimizer::WorkerMain));
  StatusOr<RoundResult> round_or = Status::Internal("round not run");
  {
    obs::Span round_span("mpq.round");
    round_or = options_.backend->RunRound(tasks, requests);
  }
  if (!round_or.ok()) return round_or.status();
  RoundResult& round = round_or.value();

  // Phase 3 (master): sharded decode + final prune.
  const auto merge_start = std::chrono::steady_clock::now();
  StatusOr<MpqResult> finalized = Status::Internal("round not finalized");
  {
    obs::Span finalize_span("mpq.finalize");
    finalized = FinalizeResponses(round.responses, options_);
  }
  if (!finalized.ok()) return finalized.status();
  MpqResult result = std::move(finalized).value();
  const auto merge_end = std::chrono::steady_clock::now();

  result.master_seconds =
      std::chrono::duration<double>(serialize_end - serialize_start).count() +
      std::chrono::duration<double>(merge_end - merge_start).count();
  result.simulated_seconds = round.simulated_seconds + result.master_seconds;
  result.wall_seconds = round.wall_seconds + result.master_seconds;
  result.network_bytes = round.traffic.bytes_sent;
  result.network_messages = round.traffic.messages;
  return result;
}

}  // namespace mpqopt
