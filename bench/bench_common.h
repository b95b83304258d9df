// Copyright 2026 mpqopt authors.
//
// Shared helpers of the figure/table benchmark binaries. Each binary
// prints the series of one paper figure or table (see DESIGN.md's
// per-experiment index and EXPERIMENTS.md for paper-vs-measured).
//
// Scaling knobs (environment):
//   MPQOPT_QUERIES_PER_POINT  queries per data point (paper: 20)
//   MPQOPT_MAX_WORKERS        cap on the worker sweep
//   MPQOPT_PAPER_SCALE=1      enable the largest paper query sizes
//   MPQOPT_SEED               workload seed

#ifndef MPQOPT_BENCH_BENCH_COMMON_H_
#define MPQOPT_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "catalog/generator.h"
#include "exp/harness.h"
#include "mpq/mpq.h"
#include "obs/percentile.h"  // obs::Percentile — THE tail-latency estimator
#include "sma/sma.h"

namespace mpqopt {

struct BenchConfig {
  int queries_per_point;
  uint64_t max_workers;
  bool paper_scale;
  uint64_t seed;

  static BenchConfig FromEnv(int default_queries = 3,
                             uint64_t default_max_workers = 128) {
    BenchConfig c;
    c.queries_per_point = static_cast<int>(
        EnvInt("MPQOPT_QUERIES_PER_POINT", default_queries));
    c.max_workers = static_cast<uint64_t>(
        EnvInt("MPQOPT_MAX_WORKERS", static_cast<int64_t>(default_max_workers)));
    c.paper_scale = EnvInt("MPQOPT_PAPER_SCALE", 0) != 0;
    c.seed = static_cast<uint64_t>(EnvInt("MPQOPT_SEED", 20160901));
    return c;
  }
};

/// Network model from environment knobs (defaults: the calibrated model
/// in net/network_model.h). Units: MPQOPT_TASK_SETUP_US and
/// MPQOPT_LATENCY_US in microseconds, MPQOPT_BANDWIDTH_MBPS in MB/s.
inline NetworkModel NetworkFromEnv() {
  NetworkModel model;
  model.task_setup_s =
      EnvDouble("MPQOPT_TASK_SETUP_US", model.task_setup_s * 1e6) * 1e-6;
  model.latency_s =
      EnvDouble("MPQOPT_LATENCY_US", model.latency_s * 1e6) * 1e-6;
  model.bandwidth_bytes_per_s =
      EnvDouble("MPQOPT_BANDWIDTH_MBPS",
                model.bandwidth_bytes_per_s / 1e6) *
      1e6;
  return model;
}

/// Generates `count` queries of `n` tables with the given shape.
inline std::vector<Query> MakeQueries(int n, int count, JoinGraphShape shape,
                                      uint64_t seed) {
  GeneratorOptions opts;
  opts.shape = shape;
  QueryGenerator gen(opts, seed + static_cast<uint64_t>(n) * 1000003);
  std::vector<Query> queries;
  queries.reserve(count);
  for (int i = 0; i < count; ++i) queries.push_back(gen.Generate(n));
  return queries;
}

/// Worker counts 1, 2, 4, ..., capped by both `cap` and the maximal
/// parallelism the algorithm supports for the query size.
inline std::vector<uint64_t> WorkerSweep(int n, PlanSpace space,
                                         uint64_t cap,
                                         uint64_t start = 1) {
  std::vector<uint64_t> sweep;
  const uint64_t max_m = std::min(cap, MaxWorkers(n, space));
  for (uint64_t m = start; m <= max_m; m *= 2) sweep.push_back(m);
  return sweep;
}

inline void PrintHeader(const char* title) {
  std::printf("==================================================\n");
  std::printf("%s\n", title);
  std::printf("==================================================\n");
}

/// Machine-readable benchmark output, shared by every bench binary via
/// the `--json=<path>` flag. CI uploads the emitted BENCH_*.json files
/// per build (90-day retention) so the perf trajectory is tracked
/// across PRs; docs/benchmarking.md documents how to read and compare
/// them.
///
/// Record schema — the file is one flat JSON array; every element is an
/// object with exactly these seven keys, in this order:
///
///   {"bench":  "fig10",                   // emitting binary / figure
///    "config": "backend=async,n=12",      // "key=value,..." data point;
///                                         //   keys are bench-specific,
///                                         //   values never contain ','
///    "metric": "latency_p95",             // measurement name
///    "value":  3.179,                     // always a JSON number
///                                         //   (%.17g, round-trips
///                                         //   doubles exactly)
///    "units":  "ms",                      // "ms", "bytes", "q/s",
///                                         //   "count", "%", "bool", ...
///    "build":  "Release",                 // CMAKE_BUILD_TYPE the binary
///                                         //   was compiled as
///    "source": "66cd793a1b2c"}            // git revision of the source
///                                         //   tree ("unknown" outside a
///                                         //   checkout)
///
/// One (bench, config, metric) triple identifies a time series across
/// builds; joining on the triple and diffing "value" is the entire
/// trajectory-comparison contract (tools/bench_diff.py implements it).
/// The build/source stamps LABEL a trajectory — which binary produced
/// which numbers — and are deliberately not part of the identity triple,
/// so diffing two revisions still joins record-for-record. Strings are
/// escaped minimally (backslash and double quote; control characters
/// become spaces — benchmark names never need them). Records appear in
/// insertion order and nothing else is ever written to the file, so
/// byte-stable inputs produce byte-stable output.
class BenchJsonWriter {
 public:
  /// Strips a `--json=<path>` argument from argc/argv (so downstream
  /// flag parsers — google-benchmark's included — never see it) and
  /// returns the path, or "" when the flag is absent.
  static std::string ParseFlag(int* argc, char** argv) {
    std::string path;
    int w = 1;
    for (int r = 1; r < *argc; ++r) {
      if (std::strncmp(argv[r], "--json=", 7) == 0) {
        path = argv[r] + 7;
        continue;
      }
      argv[w++] = argv[r];
    }
    *argc = w;
    return path;
  }

  void Add(const std::string& bench, const std::string& config,
           const std::string& metric, double value,
           const std::string& units) {
    records_.push_back({bench, config, metric, value, units});
  }

  bool empty() const { return records_.empty(); }

  /// Writes the records as a JSON array. Returns false (with a message
  /// on stderr) when the file cannot be written.
  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write benchmark json to %s\n",
                   path.c_str());
      return false;
    }
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f,
                   "  {\"bench\": \"%s\", \"config\": \"%s\", "
                   "\"metric\": \"%s\", \"value\": %.17g, "
                   "\"units\": \"%s\", \"build\": \"%s\", "
                   "\"source\": \"%s\"}%s\n",
                   Escaped(r.bench).c_str(), Escaped(r.config).c_str(),
                   Escaped(r.metric).c_str(), r.value,
                   Escaped(r.units).c_str(), Escaped(BuildType()).c_str(),
                   Escaped(SourceFingerprint()).c_str(),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    return true;
  }

  /// The compile-time stamps every record carries. CMake injects both
  /// definitions for bench targets; the fallbacks keep ad-hoc builds
  /// (e.g. compiling a bench by hand) working.
  static const char* BuildType() {
#ifdef MPQOPT_BUILD_TYPE
    return MPQOPT_BUILD_TYPE;
#else
    return "unknown";
#endif
  }
  static const char* SourceFingerprint() {
#ifdef MPQOPT_SOURCE_FINGERPRINT
    return MPQOPT_SOURCE_FINGERPRINT;
#else
    return "unknown";
#endif
  }

 private:
  struct Record {
    std::string bench;
    std::string config;
    std::string metric;
    double value;
    std::string units;
  };

  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
        out.push_back(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out.push_back(' ');  // benchmark names never need control chars
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  std::vector<Record> records_;
};

}  // namespace mpqopt

#endif  // MPQOPT_BENCH_BENCH_COMMON_H_
