// flixctl — command-line front end for FliX.
//
// Typical session:
//   # Ingest a directory of XML files (or generate a corpus) into a
//   # collection file and build + save the index:
//   flixctl build --xml-dir ./docs --collection data.flxc --index data.flix
//   flixctl build --dblp 6210 --collection data.flxc --index data.flix
//       --config maxppo --cache 256
//
//   # Inspect what was built; optionally run a sampled query workload and
//   # dump the metrics snapshot (text, or --json for the machine schema):
//   flixctl stats --collection data.flxc --index data.flix
//   flixctl stats --collection data.flxc --index data.flix --workload 100
//
//   # Queries (start elements are "docname" for a root or "docname#anchor"):
//   flixctl query   --collection data.flxc --index data.flix
//       --start vldb/pub6205 --tag article --k 10 [--exact]
//   flixctl connect --collection data.flxc --index data.flix
//       --from vldb/pub6205 --to edbt/pub0
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/oracle.h"
#include "check/validator.h"
#include "common/bytes.h"
#include "common/stopwatch.h"
#include "flix/adapt.h"
#include "flix/flix.h"
#include "flix/landmarks.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "ontology/ontology.h"
#include "ontology/relaxation.h"
#include "storage/format.h"
#include "storage/paged_file.h"
#include "text/text_index.h"
#include "workload/dblp_generator.h"
#include "workload/query_workload.h"
#include "workload/synthetic_generator.h"
#include "xml/collection.h"

namespace {

using namespace flix;

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  bool Has(const std::string& name) const { return flags.contains(name); }
  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
  size_t GetSize(const std::string& name, size_t fallback) const {
    const auto it = flags.find(name);
    if (it == flags.end()) return fallback;
    // Reject non-numeric values with a message instead of an uncaught
    // std::invalid_argument from stoul.
    size_t value = 0;
    for (const char c : it->second) {
      if (c < '0' || c > '9') {
        std::cerr << "--" << name << " expects a number, got '" << it->second
                  << "'\n";
        std::exit(2);
      }
      value = value * 10 + static_cast<size_t>(c - '0');
    }
    return value;
  }
  double GetDouble(const std::string& name, double fallback) const {
    const auto it = flags.find(name);
    if (it == flags.end()) return fallback;
    char* end = nullptr;
    const double value = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0') {
      std::cerr << "--" << name << " expects a number, got '" << it->second
                << "'\n";
      std::exit(2);
    }
    return value;
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  int i = 1;
  // Global boolean flags (e.g. --trace) may precede the subcommand.
  while (i < argc && std::string(argv[i]).rfind("--", 0) == 0) {
    args.flags[std::string(argv[i]).substr(2)] = "true";
    ++i;
  }
  if (i < argc) args.command = argv[i++];
  for (; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) == 0) {
      flag = flag.substr(2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        args.flags[flag] = argv[++i];
      } else {
        args.flags[flag] = "true";  // boolean flag
      }
    }
  }
  return args;
}

int Usage() {
  std::cerr <<
      "usage:\n"
      "  flixctl build   --collection FILE --index FILE\n"
      "                  [--xml-dir DIR | --dblp N | --synthetic]\n"
      "                  [--config naive|maxppo|uhopi|hybrid] [--bound N]\n"
      "                  [--iss-policy auto|hopi|apex] [--cache N]\n"
      "                  (writes a paged FLIXPG01 index, loaded zero-copy)\n"
      "  flixctl info    --index FILE  (describe a saved index file:\n"
      "                   options and per-segment table)\n"
      "  flixctl stats   --collection FILE --index FILE\n"
      "                  [--workload N] [--repeat N] [--json]\n"
      "                  [--watch SEC]  (redraw every SEC seconds; the\n"
      "                   workload reruns each tick)\n"
      "  flixctl profile --collection FILE --index FILE\n"
      "                  [--workload N] [--repeat N] [--top N] [--json]\n"
      "                  [--profile-file FILE] [--no-save]  (per-partition\n"
      "                   workload attribution; merges with and updates the\n"
      "                   profile persisted next to the index)\n"
      "  flixctl adapt   --collection FILE --index FILE\n"
      "                  [--dry-run | --apply] [--watch SEC]\n"
      "                  [--workload N] [--repeat N] [--top N]\n"
      "                  [--hysteresis X] [--min-queries N]\n"
      "                  [--memory-weight X] [--profile-file FILE]\n"
      "                  (workload-adaptive strategy re-selection: prints\n"
      "                   the recommendation table with projected costs;\n"
      "                   --apply migrates and re-saves the index,\n"
      "                   --watch repeats every SEC seconds)\n"
      "  flixctl trace   --chrome OUT.json\n"
      "                  [--xml-dir DIR | --dblp N | --synthetic |\n"
      "                   --collection FILE]\n"
      "                  [--config naive|maxppo|uhopi|hybrid] [--bound N]\n"
      "                  [--workload N] [--capacity N] [--slow-ms N]\n"
      "                  (in-process build + workload under the trace\n"
      "                   collector; writes a Chrome trace-event file)\n"
      "  flixctl check   --collection FILE --index FILE\n"
      "                  [--xml-dir DIR | --dblp N | --synthetic]  (build\n"
      "                   in-process instead of loading saved files)\n"
      "                  [--config naive|maxppo|uhopi|hybrid] [--bound N]\n"
      "                  [--deep] [--seed N] [--queries N] [--no-oracle]\n"
      "                  [--no-landmarks]  (--deep also validates the\n"
      "                   landmark cache against sampled BFS distances)\n"
      "  flixctl landmarks --collection FILE --index FILE\n"
      "                  [--refresh] [--count N] [--validate] [--sample N]\n"
      "                  (inspect the ALT landmark cache; --refresh\n"
      "                   rebuilds and re-saves the index)\n"
      "  flixctl query   --collection FILE --index FILE --start DOC[#ID]\n"
      "                  --tag NAME [--k N] [--max-distance D] [--exact]\n"
      "                  [--legacy]  (the paper's per-block emission)\n"
      "  flixctl connect --collection FILE --index FILE --from DOC[#ID]\n"
      "                  --to DOC[#ID] [--max-distance D] [--no-landmarks]\n"
      "  flixctl search  --collection FILE --text \"...\" [--k N]\n"
      "  flixctl relax   --collection FILE --index FILE --query PATH\n"
      "                  [--ontology FILE] [--k N] [--no-relax]\n"
      "                  (PATH like //~movie[title~\"Matrix\"]//actor;\n"
      "                   ontology file: one 'term term similarity' per "
      "line)\n"
      "global flags:\n"
      "  --trace         log one line per query span to stderr\n";
  return 2;
}

// The flags each subcommand reads (without the leading "--"). Anything
// else is rejected before the command runs, so a mistyped flag cannot fall
// back to its default unnoticed. The global --trace is accepted everywhere.
const std::map<std::string, std::set<std::string>>& CommandFlags() {
  static const auto* flags = new std::map<std::string, std::set<std::string>>{
      {"build",
       {"collection", "index", "xml-dir", "dblp", "synthetic", "config",
        "bound", "iss-policy", "cache"}},
      {"info", {"index"}},
      {"stats",
       {"collection", "index", "workload", "repeat", "json", "watch"}},
      {"profile",
       {"collection", "index", "workload", "repeat", "top", "json",
        "profile-file", "no-save"}},
      {"adapt",
       {"collection", "index", "dry-run", "apply", "watch", "workload",
        "repeat", "top", "hysteresis", "min-queries", "memory-weight",
        "profile-file"}},
      {"trace",
       {"chrome", "xml-dir", "dblp", "synthetic", "collection", "config",
        "bound", "workload", "repeat", "capacity", "slow-ms"}},
      {"check",
       {"collection", "index", "xml-dir", "dblp", "synthetic", "config",
        "bound", "deep", "seed", "queries", "no-oracle", "no-landmarks"}},
      {"landmarks",
       {"collection", "index", "refresh", "count", "validate", "sample",
        "seed"}},
      {"query",
       {"collection", "index", "start", "tag", "k", "max-distance", "exact",
        "legacy"}},
      {"connect",
       {"collection", "index", "from", "to", "max-distance", "no-landmarks"}},
      {"search", {"collection", "text", "k"}},
      {"relax",
       {"collection", "index", "query", "ontology", "k", "no-relax"}},
  };
  return *flags;
}

core::MdbConfig ParseConfig(const std::string& name) {
  if (name == "naive") return core::MdbConfig::kNaive;
  if (name == "maxppo") return core::MdbConfig::kMaximalPpo;
  if (name == "uhopi") return core::MdbConfig::kUnconnectedHopi;
  return core::MdbConfig::kHybrid;
}

core::IssPolicy ParseIssPolicy(const std::string& name) {
  if (name == "hopi") return core::IssPolicy::kForceHopi;
  if (name == "apex") return core::IssPolicy::kForceApex;
  return core::IssPolicy::kAuto;
}

// Resolves "docname" or "docname#anchor" to a global element id.
StatusOr<NodeId> ResolveElement(const xml::Collection& collection,
                                const std::string& spec) {
  const size_t hash = spec.find('#');
  const std::string doc_name = spec.substr(0, hash);
  const DocId doc = collection.FindDocument(doc_name);
  if (doc == kInvalidDoc) {
    return NotFoundError("no document named '" + doc_name + "'");
  }
  if (hash == std::string::npos) return collection.GlobalId(doc, 0);
  const std::string anchor = spec.substr(hash + 1);
  const xml::ElementId elem = collection.document(doc).FindAnchor(anchor);
  if (elem == xml::kInvalidElement) {
    return NotFoundError("no anchor '" + anchor + "' in '" + doc_name + "'");
  }
  return collection.GlobalId(doc, elem);
}

StatusOr<xml::Collection> IngestXmlDir(const std::string& dir) {
  xml::Collection collection;
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".xml") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    // Document name = path relative to the ingest root, without extension
    // (this is what hrefs in sibling documents are expected to use).
    std::string name =
        std::filesystem::relative(path, dir).replace_extension().string();
    if (auto added = collection.AddXml(buffer.str(), std::move(name));
        !added.ok()) {
      return Status(added.status().code(),
                    path.string() + ": " + added.status().message());
    }
  }
  if (collection.NumDocuments() == 0) {
    return InvalidArgumentError("no .xml files under '" + dir + "'");
  }
  collection.ResolveAllLinks();
  return collection;
}

StatusOr<xml::Collection> LoadCollection(const Args& args) {
  const std::string path = args.Get("collection");
  if (path.empty()) return InvalidArgumentError("--collection is required");
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("cannot open '" + path + "'");
  return xml::Collection::Load(in);
}

StatusOr<std::unique_ptr<core::Flix>> OpenIndex(
    const Args& args, const xml::Collection& collection) {
  const std::string path = args.Get("index");
  if (path.empty()) return InvalidArgumentError("--index is required");
  return core::Flix::Load(path, collection);
}

int CmdBuild(const Args& args) {
  StatusOr<xml::Collection> collection =
      InvalidArgumentError("one of --xml-dir, --dblp, --synthetic required");
  if (args.Has("xml-dir")) {
    collection = IngestXmlDir(args.Get("xml-dir"));
  } else if (args.Has("dblp")) {
    workload::DblpOptions options;
    options.num_publications = args.GetSize("dblp", 6210);
    collection = workload::GenerateDblp(options);
  } else if (args.Has("synthetic")) {
    collection = workload::GenerateSynthetic({});
  }
  if (!collection.ok()) {
    std::cerr << collection.status().ToString() << "\n";
    return 1;
  }
  std::cout << "collection: " << collection->NumDocuments() << " documents, "
            << collection->NumElements() << " elements, "
            << collection->links().links.size() << " links ("
            << collection->links().unresolved << " unresolved)\n";

  core::FlixOptions options;
  options.config = ParseConfig(args.Get("config", "hybrid"));
  options.iss_policy = ParseIssPolicy(args.Get("iss-policy", "auto"));
  options.partition_bound = args.GetSize("bound", 5000);
  options.query_cache_capacity = args.GetSize("cache", 0);
  Stopwatch watch;
  auto flix = core::Flix::Build(*collection, options);
  if (!flix.ok()) {
    std::cerr << flix.status().ToString() << "\n";
    return 1;
  }
  std::cout << "built " << core::MdbConfigName(options.config) << " in "
            << static_cast<int>(watch.ElapsedMillis()) << " ms: "
            << (*flix)->stats().num_meta_documents << " meta documents, "
            << FormatBytes((*flix)->stats().total_index_bytes)
            << " of indexes\n";

  const std::string collection_path = args.Get("collection");
  const std::string index_path = args.Get("index");
  if (collection_path.empty() || index_path.empty()) {
    std::cerr << "--collection and --index output paths are required\n";
    return 2;
  }
  {
    std::ofstream out(collection_path, std::ios::binary);
    if (Status s = collection->Save(out); !s.ok() || !out) {
      std::cerr << "saving collection failed: " << s.ToString() << "\n";
      return 1;
    }
  }
  if (Status s = (*flix)->Save(index_path); !s.ok()) {
    std::cerr << "saving index failed: " << s.ToString() << "\n";
    return 1;
  }
  std::cout << "wrote " << collection_path << " and " << index_path << "\n";
  return 0;
}

// Runs `count` sampled descendant queries (each `repeat` times, so an
// enabled query cache sees re-use) through the facade, feeding the metrics
// registry. Returns the number of queries executed.
size_t RunStatsWorkload(const core::Flix& flix,
                        const xml::Collection& collection, size_t count,
                        size_t repeat) {
  const graph::Digraph graph = collection.BuildGraph();
  workload::QuerySamplerOptions sampler;
  sampler.count = count;
  const std::vector<workload::DescendantQuery> queries =
      workload::SampleDescendantQueries(collection, graph, sampler);
  size_t executed = 0;
  for (size_t r = 0; r < repeat; ++r) {
    for (const workload::DescendantQuery& q : queries) {
      flix.FindDescendantsByName(q.start, q.tag_name);
      ++executed;
    }
  }
  return executed;
}

// One stats rendering pass: optionally run the sampled workload, then
// print either the JSON snapshot or the human-readable report.
void StatsTick(const Args& args, const core::Flix& flix,
               const xml::Collection& collection) {
  size_t executed = 0;
  if (args.Has("workload")) {
    executed = RunStatsWorkload(flix, collection,
                                args.GetSize("workload", 100),
                                args.GetSize("repeat", 2));
  }
  const obs::MetricsSnapshot snapshot = flix.MetricsSnapshot();

  if (args.Has("json")) {
    std::cout << obs::ToJson(snapshot) << "\n";
    return;
  }

  const core::FlixStats& stats = flix.stats();
  std::cout << "configuration: "
            << core::MdbConfigName(flix.options().config) << "\n"
            << "documents:     " << collection.NumDocuments() << "\n"
            << "elements:      " << collection.NumElements() << "\n"
            << "links:         " << collection.links().links.size() << "\n"
            << "meta docs:     " << stats.num_meta_documents << " ("
            << stats.num_ppo << " PPO / " << stats.num_hopi << " HOPI / "
            << stats.num_apex << " APEX)\n"
            << "cross links:   " << stats.num_cross_links << "\n"
            << "index size:    " << FormatBytes(stats.total_index_bytes)
            << "\n";

  // Phase timings: Load fills build_ms with the load time; a same-process
  // Build would fill the MDB/ISS/IB breakdown (also visible as the
  // flix.build.*_ns histograms below when this process built the index).
  std::cout << "load/build:    " << stats.build_ms << " ms (mdb "
            << stats.mdb_ms << " / iss " << stats.iss_ms << " / ib "
            << stats.index_build_ms << ")\n";

  if (executed > 0) {
    std::cout << "workload:      " << executed << " queries\n";
    if (const auto* latency =
            snapshot.FindHistogram("flix.query.latency_ns")) {
      std::cout << "query latency: p50 " << latency->p50 / 1e6 << " ms, p95 "
                << latency->p95 / 1e6 << " ms, p99 " << latency->p99 / 1e6
                << " ms, max " << static_cast<double>(latency->max) / 1e6
                << " ms\n";
    }
  }
  if (const core::QueryCache* cache = flix.query_cache()) {
    const core::QueryCacheStats cs = cache->Stats();
    std::cout << "cache:         " << cs.size << "/" << cs.capacity
              << " entries, hit rate " << 100 * cs.HitRate() << "% ("
              << cs.hits << " hits / " << cs.misses << " misses / "
              << cs.evictions << " evictions)\n";
  }
  std::cout << "\n" << obs::ToText(snapshot);
}

int CmdStats(const Args& args) {
  auto collection = LoadCollection(args);
  if (!collection.ok()) {
    std::cerr << collection.status().ToString() << "\n";
    return 1;
  }
  auto flix = OpenIndex(args, *collection);
  if (!flix.ok()) {
    std::cerr << flix.status().ToString() << "\n";
    return 1;
  }
  const size_t watch_sec = args.GetSize("watch", 0);
  for (size_t tick = 0;; ++tick) {
    if (watch_sec != 0) {
      std::cout << "--- tick " << tick << " (every " << watch_sec << "s, ^C "
                << "to stop) ---\n";
    }
    StatsTick(args, **flix, *collection);
    if (watch_sec == 0) break;
    std::cout.flush();
    std::this_thread::sleep_for(std::chrono::seconds(watch_sec));
  }
  return 0;
}

int CmdProfile(const Args& args) {
  auto collection = LoadCollection(args);
  if (!collection.ok()) {
    std::cerr << collection.status().ToString() << "\n";
    return 1;
  }
  auto flix = OpenIndex(args, *collection);
  if (!flix.ok()) {
    std::cerr << flix.status().ToString() << "\n";
    return 1;
  }
  const size_t executed = RunStatsWorkload(**flix, *collection,
                                           args.GetSize("workload", 100),
                                           args.GetSize("repeat", 1));

  // Live snapshot first, persisted history merged *into* it: Accumulate
  // keeps the identity fields (strategy, nodes) of the side that has them
  // set first, so after an adaptive migration the table names the strategy
  // actually running, not the one recorded by an earlier process.
  obs::WorkloadProfile merged = (*flix)->Profile();
  const std::string profile_path =
      args.Get("profile-file", obs::ProfileFilePath(args.Get("index")));
  obs::WorkloadProfile persisted;
  if (obs::LoadProfileFile(profile_path, &persisted)) {
    merged.Merge(persisted);
  }
  if (!args.Has("no-save")) {
    if (!obs::SaveProfileFile(profile_path, merged)) {
      std::cerr << "warning: could not write " << profile_path << "\n";
    }
  }

  if (args.Has("json")) {
    std::cout << obs::ProfileToJson(merged) << "\n";
    return 0;
  }
  std::cout << "workload: " << executed << " queries this run; profile at "
            << profile_path << "\n\n";
  std::cout << obs::ProfileToText(merged, args.GetSize("top", 0));
  return 0;
}

// `flixctl adapt`: workload-adaptive strategy re-selection (src/flix/adapt.h).
// Default is a dry run — print the recommendation table with projected
// costs and touch nothing. --apply migrates the recommended partitions
// (validated swaps) and re-saves the index; --watch SEC repeats the loop.
int CmdAdapt(const Args& args) {
  auto collection = LoadCollection(args);
  if (!collection.ok()) {
    std::cerr << collection.status().ToString() << "\n";
    return 1;
  }
  auto flix = OpenIndex(args, *collection);
  if (!flix.ok()) {
    std::cerr << flix.status().ToString() << "\n";
    return 1;
  }
  const bool apply = args.Has("apply");
  if (apply && args.Has("dry-run")) {
    std::cerr << "--apply and --dry-run are mutually exclusive\n";
    return 2;
  }

  core::AdaptOptions options;
  options.hysteresis = args.GetDouble("hysteresis", options.hysteresis);
  options.min_queries = args.GetSize("min-queries", options.min_queries);
  options.memory_weight =
      args.GetDouble("memory-weight", options.memory_weight);
  const core::CostModel model = core::CostModel::Measured();
  const std::string profile_path =
      args.Get("profile-file", obs::ProfileFilePath(args.Get("index")));

  if (apply) (*flix)->SetAdaptiveIss(true);
  core::StrategyMigrator migrator(**flix, model, options);

  const size_t watch_sec = args.GetSize("watch", 0);
  for (size_t tick = 0;; ++tick) {
    if (watch_sec != 0) {
      std::cout << "--- tick " << tick << " (every " << watch_sec << "s, ^C "
                << "to stop) ---\n";
    }
    if (args.Has("workload")) {
      RunStatsWorkload(**flix, *collection, args.GetSize("workload", 100),
                       args.GetSize("repeat", 1));
    }
    // Live observations first, persisted history merged in — same identity
    // rule as CmdProfile: the table names the strategy currently running.
    obs::WorkloadProfile profile = (*flix)->Profile();
    obs::WorkloadProfile persisted;
    if (obs::LoadProfileFile(profile_path, &persisted)) {
      profile.Merge(persisted);
    }
    const std::vector<core::Recommendation> recs =
        core::RecommendStrategies(**flix, profile, model, options);
    std::cout << core::RecommendationsToText(recs, args.GetSize("top", 0));

    if (apply) {
      size_t migrated = 0;
      for (const core::Recommendation& rec : recs) {
        if (!rec.migrate) continue;
        if (Status status = migrator.Migrate(rec); status.ok()) {
          std::cout << "migrated partition " << rec.partition << ": "
                    << index::StrategyName(rec.current) << " -> "
                    << index::StrategyName(rec.best) << "\n";
          ++migrated;
        } else {
          std::cout << "migration of partition " << rec.partition
                    << " FAILED (old index stays live): "
                    << status.ToString() << "\n";
        }
      }
      if (migrated > 0) {
        if (Status status = (*flix)->Save(args.Get("index")); !status.ok()) {
          std::cerr << "re-saving index failed: " << status.ToString() << "\n";
          return 1;
        }
        std::cout << "re-saved " << args.Get("index") << " after " << migrated
                  << " migration(s)\n";
      } else {
        std::cout << "nothing to migrate\n";
      }
    }
    if (watch_sec == 0) break;
    std::cout.flush();
    std::this_thread::sleep_for(std::chrono::seconds(watch_sec));
  }
  return 0;
}

int CmdTrace(const Args& args) {
  const std::string out_path = args.Get("chrome");
  if (out_path.empty() || out_path == "true") {
    std::cerr << "--chrome OUT.json is required\n";
    return 2;
  }

  StatusOr<xml::Collection> collection =
      InvalidArgumentError("one of --xml-dir/--dblp/--synthetic/--collection "
                           "is required");
  if (args.Has("xml-dir")) {
    collection = IngestXmlDir(args.Get("xml-dir"));
  } else if (args.Has("dblp")) {
    workload::DblpOptions options;
    options.num_publications = args.GetSize("dblp", 500);
    collection = workload::GenerateDblp(options);
  } else if (args.Has("synthetic")) {
    collection = workload::GenerateSynthetic({});
  } else if (args.Has("collection")) {
    collection = LoadCollection(args);
  }
  if (!collection.ok()) {
    std::cerr << collection.status().ToString() << "\n";
    return 1;
  }

  obs::TraceCollector::Global().Enable(args.GetSize("capacity", 65536));
  if (args.Has("slow-ms")) {
    obs::SlowQueryLog::Global().Configure(args.GetSize("slow-ms", 0) *
                                          1000000ull);
  }

  // Build in-process so the MDB -> ISS -> IB spans are part of the timeline,
  // then run the sampled workload for the query-side spans.
  core::FlixOptions options;
  options.config = ParseConfig(args.Get("config", "hybrid"));
  options.partition_bound = args.GetSize("bound", 5000);
  auto flix = core::Flix::Build(*collection, options);
  if (!flix.ok()) {
    std::cerr << flix.status().ToString() << "\n";
    return 1;
  }
  RunStatsWorkload(**flix, *collection, args.GetSize("workload", 25),
                   args.GetSize("repeat", 1));

  auto& collector = obs::TraceCollector::Global();
  const std::vector<obs::TraceEvent> events = collector.Events();
  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::cerr << "cannot write '" << out_path << "'\n";
    return 1;
  }
  out << obs::ToChromeTraceJson(events);
  if (!out) {
    std::cerr << "writing '" << out_path << "' failed\n";
    return 1;
  }
  std::cout << "wrote " << events.size() << " spans to " << out_path;
  if (collector.Dropped() > 0) {
    std::cout << " (" << collector.Dropped()
              << " dropped; raise --capacity to keep them)";
  }
  std::cout << "\n";
  for (const obs::SlowQueryRecord& slow :
       obs::SlowQueryLog::Global().Entries()) {
    std::cout << "slow query #" << slow.seq << " ("
              << static_cast<double>(slow.dur_ns) / 1e6 << " ms): "
              << slow.description << "\n";
  }
  collector.Disable();
  return 0;
}

// `flixctl check`: run the framework validator and the differential query
// oracle against a saved collection + index (or an in-process build when
// --xml-dir/--dblp/--synthetic is given). Exits 1 on any violation.
int CmdCheck(const Args& args) {
  StatusOr<xml::Collection> collection =
      InvalidArgumentError("--collection (or --xml-dir/--dblp/--synthetic) "
                           "is required");
  const bool in_process =
      args.Has("xml-dir") || args.Has("dblp") || args.Has("synthetic");
  if (args.Has("xml-dir")) {
    collection = IngestXmlDir(args.Get("xml-dir"));
  } else if (args.Has("dblp")) {
    workload::DblpOptions options;
    options.num_publications = args.GetSize("dblp", 6210);
    collection = workload::GenerateDblp(options);
  } else if (args.Has("synthetic")) {
    collection = workload::GenerateSynthetic({});
  } else {
    collection = LoadCollection(args);
  }
  if (!collection.ok()) {
    std::cerr << collection.status().ToString() << "\n";
    return 1;
  }
  StatusOr<std::unique_ptr<core::Flix>> flix =
      InvalidArgumentError("unreachable");
  if (in_process) {
    core::FlixOptions options;
    options.config = ParseConfig(args.Get("config", "hybrid"));
    options.partition_bound = args.GetSize("bound", 5000);
    flix = core::Flix::Build(*collection, options);
  } else {
    flix = OpenIndex(args, *collection);
  }
  if (!flix.ok()) {
    std::cerr << flix.status().ToString() << "\n";
    return 1;
  }

  if (args.Has("no-landmarks")) (*flix)->SetLandmarksEnabled(false);
  check::CheckOptions check_options;
  check_options.index.deep = args.Has("deep");
  check_options.index.seed = args.GetSize("seed", check_options.index.seed);
  Stopwatch watch;
  const check::CheckReport report =
      check::ValidateFramework(**flix, check_options);
  std::cout << "validator: " << report.checks_run << " checks, "
            << report.violations.size() << " violations ("
            << static_cast<int>(watch.ElapsedMillis()) << " ms)\n";
  for (const std::string& violation : report.violations) {
    std::cout << "  VIOLATION: " << violation << "\n";
  }

  bool oracle_ok = true;
  if (!args.Has("no-oracle")) {
    check::OracleOptions oracle_options;
    oracle_options.deep = args.Has("deep");
    oracle_options.seed = args.GetSize("seed", oracle_options.seed);
    oracle_options.num_queries =
        args.GetSize("queries", oracle_options.num_queries);
    watch.Restart();
    const check::OracleReport oracle =
        check::RunDifferentialOracle(**flix, oracle_options);
    std::cout << "oracle:    " << oracle.queries_diffed
              << " queries diffed, " << oracle.diffs.size() << " diffs ("
              << static_cast<int>(watch.ElapsedMillis()) << " ms)\n";
    for (const std::string& diff : oracle.diffs) {
      std::cout << "  DIFF: " << diff << "\n";
    }
    oracle_ok = oracle.ok();
  }

  if (report.ok() && oracle_ok) {
    std::cout << "check passed\n";
    return 0;
  }
  std::cout << "check FAILED\n";
  return 1;
}

// `flixctl info`: describe a saved index file (superblock + segment table)
// without needing the collection.
int CmdInfo(const Args& args) {
  const std::string path = args.Get("index");
  if (path.empty()) {
    std::cerr << "--index is required\n";
    return 2;
  }
  auto reader = storage::PagedFileReader::Open(path, /*verify_checksums=*/true);
  if (!reader.ok()) {
    std::cerr << path << ": " << reader.status().ToString() << "\n";
    return 1;
  }
  const storage::Superblock& sb = reader->superblock();
  std::cout << path << ": paged (mmap) format v" << sb.version << "\n"
            << "  size: " << FormatBytes(sb.file_bytes) << " in "
            << sb.segment_count << " segments (" << sb.page_bytes
            << "-byte pages, checksums verified)\n"
            << "  collection: " << sb.num_elements << " elements\n"
            << "  config: " << core::MdbConfigName(
                   static_cast<core::MdbConfig>(sb.config))
            << ", " << sb.num_partitions << " partitions, "
            << sb.num_cross_links << " cross links\n"
            << "  options: bound=" << sb.partition_bound
            << " hopi_max_nodes=" << sb.hopi_max_nodes
            << " cache=" << sb.query_cache_capacity << "\n";
  if (sb.landmark_count_plus_one > 1 && sb.landmark_generation > 0) {
    std::cout << "  landmarks: " << (sb.landmark_count_plus_one - 1)
              << " configured, generation " << sb.landmark_generation
              << " on disk (compare with the live generation from\n"
              << "             'flixctl landmarks' to gauge staleness)\n";
  } else {
    // Legacy pre-landmark file (0), explicitly disabled (1), or configured
    // but never built — point queries run blind either way.
    std::cout << "  landmarks: none (point queries run blind; build with "
                 "'flixctl landmarks --refresh')\n";
  }
  std::cout << "  segments:\n";
  for (const storage::SegmentEntry& entry : reader->segments()) {
    std::cout << "    ";
    switch (static_cast<storage::SegmentKind>(entry.kind)) {
      case storage::SegmentKind::kFramework:
        std::cout << "framework        ";
        break;
      case storage::SegmentKind::kPartition:
        std::cout << "partition " << entry.partition << "\t";
        break;
      case storage::SegmentKind::kIndex:
        std::cout << "index " << entry.partition << " ["
                  << index::StrategyName(
                         static_cast<index::StrategyKind>(entry.strategy))
                  << "]\t";
        break;
      case storage::SegmentKind::kLandmarks:
        std::cout << "landmarks        ";
        break;
      default:
        std::cout << "unknown kind " << entry.kind << "\t";
        break;
    }
    std::cout << FormatBytes(entry.length) << " @ " << entry.offset << "\n";
  }
  return 0;
}

// `flixctl landmarks`: inspect or rebuild the ALT landmark cache that
// accelerates point queries (flix/landmarks.h). Default prints the live
// cache; --refresh rebuilds and re-saves the index, --count N changes the landmark budget for that rebuild.
int CmdLandmarks(const Args& args) {
  auto collection = LoadCollection(args);
  if (!collection.ok()) {
    std::cerr << collection.status().ToString() << "\n";
    return 1;
  }
  auto flix = OpenIndex(args, *collection);
  if (!flix.ok()) {
    std::cerr << flix.status().ToString() << "\n";
    return 1;
  }
  if (args.Has("count")) {
    (*flix)->SetLandmarkCount(args.GetSize("count", 16));
  }
  if (args.Has("refresh") || args.Has("count")) {
    Stopwatch watch;
    const size_t stale = (*flix)->RebuildLandmarks();
    std::cout << "rebuilt landmark cache in "
              << static_cast<int>(watch.ElapsedMillis()) << " ms (" << stale
              << " in-flight queries finished on the displaced cache)\n";
    if (Status status = (*flix)->Save(args.Get("index")); !status.ok()) {
      std::cerr << "re-saving index failed: " << status.ToString() << "\n";
      return 1;
    }
    std::cout << "re-saved " << args.Get("index") << "\n";
  }

  const std::shared_ptr<const core::LandmarkCache> cache =
      (*flix)->meta_documents().landmarks.Snapshot();
  if (cache == nullptr || cache->empty()) {
    std::cout << "no landmark cache: point queries run blind\n"
              << "build one with: flixctl landmarks --collection ... "
                 "--index ... --refresh [--count N]\n";
    return 0;
  }
  std::cout << "landmarks: " << cache->num_landmarks() << " over "
            << cache->num_nodes() << " elements, generation "
            << cache->generation() << ", " << FormatBytes(cache->MemoryBytes())
            << "\n";
  const core::MetaDocumentSet& set = (*flix)->meta_documents();
  for (const NodeId l : cache->landmarks()) {
    const auto loc = collection->Locate(l);
    std::cout << "  " << collection->document(loc.doc).name() << "#"
              << loc.elem << "  (partition " << set.meta_of_node[l] << ")\n";
  }
  if (args.Has("validate")) {
    Stopwatch watch;
    const Status status =
        cache->Validate(collection->BuildGraph(),
                        args.GetSize("sample", 64), args.GetSize("seed", 1));
    if (status.ok()) {
      std::cout << "validate: distances agree with BFS ("
                << static_cast<int>(watch.ElapsedMillis()) << " ms)\n";
    } else {
      std::cout << "validate FAILED: " << status.ToString() << "\n";
      return 1;
    }
  }
  return 0;
}

int CmdQuery(const Args& args) {
  auto collection = LoadCollection(args);
  if (!collection.ok()) {
    std::cerr << collection.status().ToString() << "\n";
    return 1;
  }
  auto flix = OpenIndex(args, *collection);
  if (!flix.ok()) {
    std::cerr << flix.status().ToString() << "\n";
    return 1;
  }
  const auto start = ResolveElement(*collection, args.Get("start"));
  if (!start.ok()) {
    std::cerr << start.status().ToString() << "\n";
    return 1;
  }
  const std::string tag = args.Get("tag");
  if (tag.empty()) {
    std::cerr << "--tag is required\n";
    return 2;
  }
  core::QueryOptions options;
  options.max_results =
      static_cast<int64_t>(args.GetSize("k", static_cast<size_t>(-1)));
  if (args.Has("max-distance")) {
    options.max_distance =
        static_cast<Distance>(args.GetSize("max-distance", 0));
  }
  options.exact = args.Has("exact");
  options.materialize = args.Has("legacy");

  Stopwatch watch;
  size_t count = 0;
  double first_ms = 0.0;
  (*flix)->FindDescendantsByName(*start, tag, options,
                                 [&](const core::Result& r) {
                                   if (count == 0) {
                                     first_ms = watch.ElapsedMillis();
                                   }
                                   const auto loc = collection->Locate(r.node);
                                   std::cout
                                       << "  "
                                       << collection->document(loc.doc).name()
                                       << "#" << loc.elem << "  distance "
                                       << r.distance << "\n";
                                   ++count;
                                   return true;
                                 });
  std::cout << count << " results in " << watch.ElapsedMillis() << " ms";
  if (count > 0) std::cout << " (first after " << first_ms << " ms)";
  std::cout << "\n";
  return 0;
}

int CmdConnect(const Args& args) {
  auto collection = LoadCollection(args);
  if (!collection.ok()) {
    std::cerr << collection.status().ToString() << "\n";
    return 1;
  }
  auto flix = OpenIndex(args, *collection);
  if (!flix.ok()) {
    std::cerr << flix.status().ToString() << "\n";
    return 1;
  }
  const auto from = ResolveElement(*collection, args.Get("from"));
  const auto to = ResolveElement(*collection, args.Get("to"));
  if (!from.ok() || !to.ok()) {
    std::cerr << (from.ok() ? to.status() : from.status()).ToString() << "\n";
    return 1;
  }
  Distance max_distance = -1;
  if (args.Has("max-distance")) {
    max_distance = static_cast<Distance>(args.GetSize("max-distance", 0));
  }
  // Differential escape hatch: compare guided vs blind answers in place.
  if (args.Has("no-landmarks")) (*flix)->SetLandmarksEnabled(false);
  const Distance d = (*flix)->FindDistance(*from, *to, max_distance);
  if (d == kUnreachable) {
    std::cout << "not connected\n";
  } else {
    std::cout << "connected, distance " << d << "\n";
  }
  return 0;
}

int CmdSearch(const Args& args) {
  auto collection = LoadCollection(args);
  if (!collection.ok()) {
    std::cerr << collection.status().ToString() << "\n";
    return 1;
  }
  const std::string query = args.Get("text");
  if (query.empty()) {
    std::cerr << "--text is required\n";
    return 2;
  }
  Stopwatch build_watch;
  const text::TextIndex index = text::TextIndex::Build(*collection);
  std::cout << "text index: " << index.NumTerms() << " terms over "
            << index.NumIndexedElements() << " elements ("
            << static_cast<int>(build_watch.ElapsedMillis()) << " ms)\n";
  const size_t k = args.GetSize("k", 10);
  for (const auto& hit : index.Search(query, k)) {
    const auto loc = collection->Locate(hit.element);
    const auto& doc = collection->document(loc.doc);
    std::cout << "  " << hit.score << "  " << doc.name() << "#" << loc.elem
              << " <" << collection->pool().Name(doc.element(loc.elem).tag)
              << ">  \"" << doc.element(loc.elem).text << "\"\n";
  }
  return 0;
}

int CmdRelax(const Args& args) {
  auto collection = LoadCollection(args);
  if (!collection.ok()) {
    std::cerr << collection.status().ToString() << "\n";
    return 1;
  }
  auto flix = OpenIndex(args, *collection);
  if (!flix.ok()) {
    std::cerr << flix.status().ToString() << "\n";
    return 1;
  }
  auto query = ontology::ParsePathQuery(args.Get("query"));
  if (!query.ok()) {
    std::cerr << query.status().ToString() << "\n";
    return 1;
  }

  // Optional ontology: one "term term similarity" triple per line;
  // '#'-prefixed lines are comments.
  ontology::Ontology onto;
  if (args.Has("ontology")) {
    std::ifstream in(args.Get("ontology"));
    if (!in) {
      std::cerr << "cannot open ontology '" << args.Get("ontology") << "'\n";
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::stringstream fields(line);
      std::string a;
      std::string b;
      double sim = 0;
      if (fields >> a >> b >> sim) {
        onto.AddSimilarity(a, b, sim);
      } else {
        std::cerr << "skipping malformed ontology line: " << line << "\n";
      }
    }
  }

  const text::TextIndex text_index = text::TextIndex::Build(*collection);
  ontology::RelaxedQueryOptions ropts;
  ropts.text_index = &text_index;

  const ontology::PathQuery effective =
      args.Has("no-relax") ? *query : ontology::Relax(*query);
  Stopwatch watch;
  const auto matches =
      ontology::EvaluatePathQuery(**flix, onto, effective, ropts);
  const size_t k = args.GetSize("k", 10);
  size_t shown = 0;
  for (const auto& m : matches) {
    if (++shown > k) break;
    const auto loc = collection->Locate(m.node);
    const auto& doc = collection->document(loc.doc);
    std::cout << "  score " << m.score << "  path length " << m.path_length
              << "  " << doc.name() << "#" << loc.elem << " <"
              << collection->pool().Name(doc.element(loc.elem).tag) << ">\n";
  }
  std::cout << matches.size() << " matches in " << watch.ElapsedMillis()
            << " ms\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const auto known = CommandFlags().find(args.command);
  if (known == CommandFlags().end()) return Usage();
  for (const auto& [flag, value] : args.flags) {
    if (flag != "trace" && !known->second.contains(flag)) {
      std::cerr << "unknown flag --" << flag << " for " << args.command
                << "\n";
      return Usage();
    }
  }
  if (args.Has("trace")) flix::obs::SetTraceLog(&std::cerr);
  if (args.command == "build") return CmdBuild(args);
  if (args.command == "stats") return CmdStats(args);
  if (args.command == "profile") return CmdProfile(args);
  if (args.command == "adapt") return CmdAdapt(args);
  if (args.command == "trace") return CmdTrace(args);
  if (args.command == "check") return CmdCheck(args);
  if (args.command == "info") return CmdInfo(args);
  if (args.command == "landmarks") return CmdLandmarks(args);
  if (args.command == "query") return CmdQuery(args);
  if (args.command == "connect") return CmdConnect(args);
  if (args.command == "search") return CmdSearch(args);
  if (args.command == "relax") return CmdRelax(args);
  return Usage();
}
