// Copyright 2026 mpqopt authors.

#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "catalog/generator.h"
#include "common/rng.h"
#include "partition/constraints.h"

namespace perfbench {

using mpqopt::JoinGraphShape;
using mpqopt::Objective;
using mpqopt::PlanSpace;

namespace {

constexpr JoinGraphShape kShapes[] = {JoinGraphShape::kChain,
                                      JoinGraphShape::kStar,
                                      JoinGraphShape::kCycle};

/// Independent generator streams per (purpose, class).
enum StreamTag : uint64_t {
  kFreshStream = 1,
  kPoolStream = 2,
  kSmaStream = 3,
  kSmaProbeStream = 4,
  kArrivalStream = 5,
};

uint64_t StreamSeed(uint64_t seed, uint64_t tag, uint64_t index) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag * 0xBF58476D1CE4E5B9ull +
               index * 0x94D049BB133111EBull + 0x2545F4914F6CDD1Dull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Every shape of each (tables, space, objective, m) combination.
std::vector<QueryClass> Cross(
    std::initializer_list<std::tuple<int, PlanSpace, uint64_t>> sizes,
    Objective objective, ArrivalKind kind = ArrivalKind::kMpq) {
  std::vector<QueryClass> classes;
  for (const auto& [tables, space, workers] : sizes) {
    for (JoinGraphShape shape : kShapes) {
      QueryClass c;
      c.kind = kind;
      c.shape = shape;
      c.tables = tables;
      c.space = space;
      c.objective = objective;
      c.workers = workers;
      classes.push_back(c);
    }
  }
  return classes;
}

/// serve_mix classes: n = 6..12, linear and bushy, m = 4 and 8 (capped
/// at the partition limit of small bushy queries), every shape.
std::vector<QueryClass> ServeMixClasses() {
  std::vector<QueryClass> classes;
  for (int n = 6; n <= 12; ++n) {
    for (PlanSpace space : {PlanSpace::kLinear, PlanSpace::kBushy}) {
      for (uint64_t m : {uint64_t{4}, uint64_t{8}}) {
        for (JoinGraphShape shape : kShapes) {
          QueryClass c;
          c.shape = shape;
          c.tables = n;
          c.space = space;
          c.workers = std::min(m, mpqopt::MaxWorkers(n, space));
          classes.push_back(c);
        }
      }
    }
  }
  return classes;
}

std::vector<WorkloadSpec> BuildWorkloads() {
  std::vector<WorkloadSpec> all;
  {
    WorkloadSpec w;
    w.name = "cold_large";
    w.clients = 1;
    // lin16 is dealt twice as often as the other sizes, so the median
    // falls inside one size class instead of on the gap between two.
    w.fresh_classes = Cross({{15, PlanSpace::kLinear, 16},
                             {16, PlanSpace::kLinear, 16},
                             {16, PlanSpace::kLinear, 16},
                             {12, PlanSpace::kBushy, 16},
                             {13, PlanSpace::kBushy, 16}},
                            Objective::kTime);
    w.hit_probes_per_arrival = 32;
    w.sma_probe_every = 1;
    w.fresh_per_client_second = 100;
    w.arrivals_per_client_second = 100;
    all.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "cold_pareto";
    w.clients = 1;
    w.fresh_classes =
        Cross({{13, PlanSpace::kLinear, 16}, {14, PlanSpace::kLinear, 16},
               {10, PlanSpace::kBushy, 8}},
              Objective::kTimeAndBuffer);
    w.hit_probes_per_arrival = 32;
    w.sma_probe_every = 4;
    w.fresh_per_client_second = 400;
    w.arrivals_per_client_second = 400;
    all.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "serve_mix";
    w.clients = 4;
    w.fresh_classes = ServeMixClasses();
    w.pool_size = 512;
    w.zipf_exponent = 1.0;
    w.fresh_share = 0.1;
    w.sma_probe_every = 64;
    w.fresh_per_client_second = 600;
    w.arrivals_per_client_second = 5000;
    all.push_back(w);
  }
  {
    WorkloadSpec w;
    w.name = "rpc_fanout";
    w.clients = 1;
    // One worker: with two, every round also spawns two lane threads and
    // waits on both, and the host's wake-up latency set the figures.
    w.rpc_workers = 1;
    w.fresh_classes = Cross({{10, PlanSpace::kLinear, 16},
                             {10, PlanSpace::kLinear, 32},
                             {11, PlanSpace::kLinear, 16},
                             {11, PlanSpace::kLinear, 32},
                             {12, PlanSpace::kLinear, 16},
                             {12, PlanSpace::kLinear, 32}},
                            Objective::kTime);
    w.sma_every = 8;
    w.sma_classes = SmaProbeClasses();
    w.hit_probes_per_arrival = 16;
    w.fresh_per_client_second = 1000;
    w.arrivals_per_client_second = 1000;
    all.push_back(w);
  }
  return all;
}

Item Generate(mpqopt::QueryGenerator* gen, const QueryClass& cls, int index) {
  Item item;
  item.query = gen->Generate(cls.tables);
  item.cls = index;
  return item;
}

/// Generates `count` queries dealing `classes` round-robin, one
/// generator stream per class.
std::vector<Item> GenerateDealt(const std::vector<QueryClass>& classes,
                                size_t count, uint64_t seed, uint64_t tag) {
  std::vector<mpqopt::QueryGenerator> gens;
  gens.reserve(classes.size());
  for (size_t c = 0; c < classes.size(); ++c) {
    mpqopt::GeneratorOptions opts;
    opts.shape = classes[c].shape;
    gens.emplace_back(opts, StreamSeed(seed, tag, c));
  }
  std::vector<Item> items;
  items.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t c = i % classes.size();
    items.push_back(Generate(&gens[c], classes[c], static_cast<int>(c)));
  }
  return items;
}

}  // namespace

std::string QueryClass::Label() const {
  std::string label = kind == ArrivalKind::kSma ? "sma/" : "";
  label += space == PlanSpace::kLinear ? "lin" : "bushy";
  label += std::to_string(tables);
  label += "/";
  label += mpqopt::JoinGraphShapeName(shape);
  label += "/m" + std::to_string(workers);
  if (objective == Objective::kTimeAndBuffer) label += "/mo";
  return label;
}

const std::vector<QueryClass>& SmaProbeClasses() {
  // n=9 at m=8 is the middle class both in-process and over rpc; dealing
  // it three times as often keeps the SMA median inside it instead of on
  // the gap between two classes.
  static const std::vector<QueryClass> classes = [] {
    std::vector<QueryClass> out;
    for (const auto& [n, m] :
         {std::pair{8, 4}, {8, 8}, {9, 4}, {9, 8}, {9, 8}, {9, 8}, {10, 4},
          {10, 8}}) {
      QueryClass c;
      c.kind = ArrivalKind::kSma;
      c.shape = JoinGraphShape::kChain;
      c.tables = n;
      c.workers = static_cast<uint64_t>(m);
      out.push_back(c);
    }
    return out;
  }();
  return classes;
}

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> all = BuildWorkloads();
  return all;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

mpqopt::MpqOptions MpqOptionsFor(const QueryClass& cls) {
  mpqopt::MpqOptions opts;
  opts.space = cls.space;
  opts.objective = cls.objective;
  opts.alpha = 10.0;
  opts.num_workers = cls.workers;
  return opts;
}

mpqopt::SmaOptions SmaOptionsFor(const QueryClass& cls) {
  mpqopt::SmaOptions opts;
  opts.space = cls.space;
  opts.objective = cls.objective;
  opts.alpha = 10.0;
  opts.num_workers = cls.workers;
  return opts;
}

Inputs GenerateInputs(const WorkloadSpec& spec, uint64_t seed, int seconds) {
  Inputs in;
  const size_t clients = static_cast<size_t>(spec.clients);
  const size_t fresh_per_client =
      static_cast<size_t>(spec.fresh_per_client_second) *
      static_cast<size_t>(seconds);
  const size_t arrivals_per_client =
      static_cast<size_t>(spec.arrivals_per_client_second) *
      static_cast<size_t>(seconds);
  in.fresh = GenerateDealt(spec.fresh_classes, fresh_per_client * clients,
                           seed, kFreshStream);
  if (spec.pool_size > 0) {
    in.pool = GenerateDealt(spec.fresh_classes,
                            static_cast<size_t>(spec.pool_size), seed,
                            kPoolStream);
  }
  size_t sma_per_client = 0;
  if (spec.sma_every > 0) {
    sma_per_client =
        arrivals_per_client / static_cast<size_t>(spec.sma_every) + 1;
    in.sma = GenerateDealt(spec.sma_classes, sma_per_client * clients, seed,
                           kSmaStream);
  }
  in.sma_probes = GenerateDealt(SmaProbeClasses(), 48, seed, kSmaProbeStream);

  // Zipf CDF over pool ranks.
  std::vector<double> cdf;
  if (!in.pool.empty()) {
    double total = 0;
    for (size_t r = 0; r < in.pool.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf_exponent);
      cdf.push_back(total);
    }
    for (double& c : cdf) c /= total;
  }

  in.streams.resize(clients);
  for (size_t c = 0; c < clients; ++c) {
    mpqopt::Rng rng(StreamSeed(seed, kArrivalStream, c));
    std::vector<QueryRef>& stream = in.streams[c];
    size_t next_fresh = c * fresh_per_client;
    const size_t fresh_end = next_fresh + fresh_per_client;
    size_t next_sma = c * sma_per_client;
    stream.reserve(arrivals_per_client);
    for (size_t i = 0; i < arrivals_per_client; ++i) {
      QueryRef ref;
      if (spec.sma_every > 0 &&
          (i + 1) % static_cast<size_t>(spec.sma_every) == 0) {
        ref.source = QueryRef::kSma;
        ref.index = static_cast<uint32_t>(next_sma++);
      } else if (cdf.empty() || rng.UniformDouble() < spec.fresh_share) {
        if (next_fresh == fresh_end) break;  // budget exhausted
        ref.source = QueryRef::kFresh;
        ref.index = static_cast<uint32_t>(next_fresh++);
      } else {
        const double u = rng.UniformDouble();
        ref.source = QueryRef::kPool;
        ref.index = static_cast<uint32_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        ref.index = std::min<uint32_t>(
            ref.index, static_cast<uint32_t>(in.pool.size() - 1));
      }
      stream.push_back(ref);
    }
  }
  return in;
}

const Item& ItemOf(const Inputs& inputs, QueryRef ref) {
  switch (ref.source) {
    case QueryRef::kPool:
      return inputs.pool[ref.index];
    case QueryRef::kSma:
      return inputs.sma[ref.index];
    case QueryRef::kFresh:
      break;
  }
  return inputs.fresh[ref.index];
}

const QueryClass& ClassOf(const WorkloadSpec& spec, const Inputs& inputs,
                          QueryRef ref) {
  const Item& item = ItemOf(inputs, ref);
  if (ref.source == QueryRef::kSma) {
    return spec.sma_classes[static_cast<size_t>(item.cls)];
  }
  return spec.fresh_classes[static_cast<size_t>(item.cls)];
}

}  // namespace perfbench
