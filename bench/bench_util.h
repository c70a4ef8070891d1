// Shared plumbing for the experiment-reproduction benches: corpus setup,
// the six indexing setups of the paper's Section 6, and timing helpers.
//
// Timing records through the observability layer (obs/): builds and queries
// feed the process-wide metrics registry, and every bench prints a
// machine-readable `BENCH_<name>.json: {...}` block on exit via
// EmitMetricsBlock, so runs can be diffed by scripts instead of scraping
// the human-readable tables.
#ifndef FLIX_BENCH_BENCH_UTIL_H_
#define FLIX_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "flix/flix.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workload/dblp_generator.h"

namespace flix::bench {

// One experimental setup from the paper: a label plus FliX options.
struct Setup {
  std::string label;
  core::FlixOptions options;
};

// The six competitors of Section 6. "HOPI" and "APEX" are the monolithic
// indexes over the complete collection (realized as one unbounded
// partition); the FliX configurations follow the paper.
inline std::vector<Setup> PaperSetups() {
  std::vector<Setup> setups;
  {
    Setup s;
    s.label = "HOPI";
    s.options.config = core::MdbConfig::kUnconnectedHopi;
    s.options.partition_bound = std::numeric_limits<size_t>::max();
    setups.push_back(s);
  }
  {
    Setup s;
    s.label = "APEX";
    s.options.config = core::MdbConfig::kUnconnectedHopi;
    s.options.partition_bound = std::numeric_limits<size_t>::max();
    s.options.iss_policy = core::IssPolicy::kForceApex;
    setups.push_back(s);
  }
  {
    Setup s;
    s.label = "PPO-naive";
    s.options.config = core::MdbConfig::kNaive;
    setups.push_back(s);
  }
  {
    Setup s;
    s.label = "HOPI-5000";
    s.options.config = core::MdbConfig::kUnconnectedHopi;
    s.options.partition_bound = 5000;
    setups.push_back(s);
  }
  {
    Setup s;
    s.label = "HOPI-20000";
    s.options.config = core::MdbConfig::kUnconnectedHopi;
    s.options.partition_bound = 20000;
    setups.push_back(s);
  }
  {
    Setup s;
    s.label = "MaximalPPO";
    s.options.config = core::MdbConfig::kMaximalPpo;
    setups.push_back(s);
  }
  return setups;
}

// Generates the DBLP-style corpus at the paper's scale divided by `scale`
// (scale 1 = 6,210 publications / ~169k elements / ~25k links).
inline xml::Collection MakeCorpus(size_t num_publications) {
  workload::DblpOptions options;
  options.num_publications = num_publications;
  auto collection = workload::GenerateDblp(options);
  if (!collection.ok()) {
    std::fprintf(stderr, "corpus generation failed: %s\n",
                 collection.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(collection).value();
}

inline size_t InterDocLinks(const xml::Collection& collection) {
  size_t count = 0;
  for (const xml::Link& link : collection.links().links) {
    if (link.IsInterDocument()) ++count;
  }
  return count;
}

inline std::unique_ptr<core::Flix> MustBuild(const xml::Collection& collection,
                                             const core::FlixOptions& options) {
  // Span instead of ad-hoc timing: build latency lands in the same
  // histogram family the engine itself records into.
  obs::TraceSpan span(
      &obs::MetricsRegistry::Global().GetHistogram("bench.build_ns"),
      "bench.build");
  auto flix = core::Flix::Build(collection, options);
  if (!flix.ok()) {
    std::fprintf(stderr, "build failed: %s\n", flix.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(flix).value();
}

// Simple --flag value parsing.
inline size_t FlagOr(int argc, char** argv, const char* name,
                     size_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return std::stoul(argv[i + 1]);
    }
  }
  return fallback;
}

// True when the bare flag `name` is present.
inline bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

// True once any Check has failed in this process.
inline bool& AnyCheckFailed() {
  static bool failed = false;
  return failed;
}

// Relation check line for the qualitative, paper-reported shape. A failed
// check also fails the run: benches return ExitCode() from main.
inline void Check(const char* what, bool ok) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) AnyCheckFailed() = true;
}

// The bench's exit status: 1 when a Check failed, else 0.
inline int ExitCode() { return AnyCheckFailed() ? 1 : 0; }

// A bench-run parameter recorded in the emitted envelope. bench_compare
// refuses to diff runs whose config key/value lists differ, so anything
// that changes the workload shape (corpus size, repeats, k) belongs here.
struct ConfigEntry {
  std::string key;
  std::string value;
};

inline ConfigEntry Config(const char* key, size_t value) {
  return ConfigEntry{key, std::to_string(value)};
}

inline ConfigEntry Config(const char* key, const char* value) {
  return ConfigEntry{key, value};
}

// Prints the machine-readable metrics block; call once at the end of main.
// The core query series are touched first so the block always contains the
// query latency histogram and the four QueryStats counters, even for a
// bench that never queried (their values are then zero).
//
// Envelope schema (version 2):
//   BENCH_<name>.json: {"schema_version":2,"bench":"<name>",
//                       "config":{"k":"v",...},"metrics":{<obs::ToJson>}}
// Version 1 blocks were the bare obs::ToJson snapshot; bench_compare
// refuses them (no identity to match against).
inline void EmitMetricsBlock(const char* bench_name,
                             const std::vector<ConfigEntry>& config = {}) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetHistogram("flix.query.latency_ns");
  reg.GetCounter("flix.query.entries_processed");
  reg.GetCounter("flix.query.entries_dominated");
  reg.GetCounter("flix.query.links_followed");
  reg.GetCounter("flix.query.index_probes");
  const std::string metrics = obs::ToJson(reg.Snapshot());
  std::string envelope = "{\"schema_version\":2,\"bench\":\"";
  envelope += bench_name;
  envelope += "\",\"config\":{";
  for (size_t i = 0; i < config.size(); ++i) {
    if (i > 0) envelope += ',';
    envelope += '"';
    envelope += config[i].key;
    envelope += "\":\"";
    envelope += config[i].value;
    envelope += '"';
  }
  envelope += "},\"metrics\":";
  envelope += metrics;
  envelope += '}';
  std::printf("\nBENCH_%s.json: %s\n", bench_name, envelope.c_str());
}

}  // namespace flix::bench

#endif  // FLIX_BENCH_BENCH_UTIL_H_
