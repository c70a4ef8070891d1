#include "layers.h"

#include <algorithm>
#include <filesystem>
#include <limits>

#include "flix/landmarks.h"
#include "obs/names.h"
#include "storage/paged_file.h"

namespace flixbench {
namespace {

using flix::core::Flix;
using flix::index::StrategyKind;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr const char* kStrategies[] = {"ppo", "hopi", "apex"};

// Slot of a strategy in the per-strategy metrics, or -1 for the strategies
// FliX's ISS never picks (summary, transitive closure).
int Slot(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kPpo: return 0;
    case StrategyKind::kHopi: return 1;
    case StrategyKind::kApex: return 2;
    default: return -1;
  }
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

BuildSample SampleBuild(const IngestTimes& ingest, const Flix& built,
                        const std::vector<flix::obs::TraceEvent>& spans) {
  BuildSample out;
  out.parse = Ms(ingest.parse_ns);
  out.resolve_links = Ms(ingest.resolve_ns);
  const flix::core::FlixStats& stats = built.stats();
  out.build = stats.build_ms;
  out.mdb = stats.mdb_ms;
  out.iss = stats.iss_ms;
  for (const flix::core::MetaIndexStats& m : stats.per_meta) {
    if (const int slot = Slot(m.strategy); slot >= 0) {
      out.index[slot] += m.build_ms;
    }
  }
  // What Flix::Build does outside its MDB, ISS, IB and landmark spans:
  // BuildGraph and the document maps.
  out.graph = Ms(SpanLog::SelfNs(spans, flix::obs::names::kSpanBuild));
  out.landmarks =
      Ms(SpanLog::TotalNs(spans, flix::obs::names::kSpanBuildLandmarks));
  return out;
}

void ReportBuildLayers(const std::vector<BuildSample>& samples,
                       const Flix& built, MetricSet& metrics) {
  const auto median = [&](auto field) {
    std::vector<double> values;
    for (const BuildSample& s : samples) values.push_back(field(s));
    return Median(std::move(values));
  };
  metrics.Set("flix.build_ms", median([](auto& s) { return s.build; }), "ms");
  metrics.Set("xml.parse_ms", median([](auto& s) { return s.parse; }), "ms");
  metrics.Set("xml.resolve_links_ms",
              median([](auto& s) { return s.resolve_links; }), "ms");
  metrics.Set("graph.build_graph_ms", median([](auto& s) { return s.graph; }),
              "ms");
  metrics.Set("mdb.partition_ms", median([](auto& s) { return s.mdb; }), "ms");
  metrics.Set("mdb.meta_documents",
              static_cast<double>(built.stats().num_meta_documents), "count");
  metrics.Set("mdb.cross_links",
              static_cast<double>(built.stats().num_cross_links), "count");
  metrics.Set("iss.select_ms", median([](auto& s) { return s.iss; }), "ms");
  double bytes[3] = {0, 0, 0};
  for (const flix::core::MetaIndexStats& m : built.stats().per_meta) {
    if (const int slot = Slot(m.strategy); slot >= 0) {
      bytes[slot] += static_cast<double>(m.index_bytes);
    }
  }
  for (int slot = 0; slot < 3; ++slot) {
    metrics.Set(std::string("index.build_ms.") + kStrategies[slot],
                median([slot](auto& s) { return s.index[slot]; }), "ms");
    metrics.Set(std::string("index.mb.") + kStrategies[slot], bytes[slot] / 1e6,
                "MB");
  }
  metrics.Set("landmarks.build_ms",
              median([](auto& s) { return s.landmarks; }), "ms");
  const auto cache = built.meta_documents().landmarks.Snapshot();
  metrics.Set("landmarks.mb",
              cache == nullptr ? 0 : static_cast<double>(cache->MemoryBytes()) / 1e6,
              "MB");
}

flix::Status MeasureStorageLayers(const Flix& built,
                                  const flix::core::FlixOptions& options,
                                  const std::string& path, size_t repeats,
                                  SpanLog& spans, MetricSet& metrics) {
  // The same index without its landmark segment. Loading it skips exactly
  // the landmark verification that Flix::Load runs on every paged open.
  flix::core::FlixOptions bare_options = options;
  bare_options.landmark_count = 0;
  auto bare = Flix::Build(built.collection(), bare_options);
  if (!bare.ok()) return bare.status();
  const std::string bare_path = path + ".nolandmarks";
  if (flix::Status saved = (*bare)->Save(bare_path, Flix::IndexFormat::kMapped);
      !saved.ok()) {
    return saved;
  }
  bare->reset();

  double save = kInf, open_verify = kInf, open_noverify = kInf;
  double load = kInf, load_bare = kInf;
  const auto measure = [&]() -> flix::Status {
    for (size_t r = 0; r < repeats; ++r) {
      {
        flix::obs::TraceSpan span(nullptr, "storage.save");
        const flix::Status saved = built.Save(path, Flix::IndexFormat::kMapped);
        if (!saved.ok()) return saved;
        save = std::min(save, Ms(span.ElapsedNanos()));
      }
      for (const bool verify : {true, false}) {
        flix::StatusOr<flix::storage::PagedFileReader> reader =
            flix::Status::Ok();
        flix::obs::TraceSpan span(nullptr, verify ? "storage.open_verify"
                                                  : "storage.open_noverify");
        reader = flix::storage::PagedFileReader::Open(path, verify);
        if (!reader.ok()) return reader.status();
        double& best = verify ? open_verify : open_noverify;
        best = std::min(best, Ms(span.ElapsedNanos()));
      }
      for (const bool landmarks : {true, false}) {
        flix::StatusOr<std::unique_ptr<Flix>> loaded = flix::Status::Ok();
        flix::obs::TraceSpan span(
            nullptr, landmarks ? "flix.load_noverify" : "flix.load_noverify_bare");
        loaded = Flix::Load(landmarks ? path : bare_path, built.collection(),
                            {.verify_checksums = false});
        if (!loaded.ok()) return loaded.status();
        double& best = landmarks ? load : load_bare;
        best = std::min(best, Ms(span.ElapsedNanos()));
      }
    }
    return flix::Status::Ok();
  };
  spans.Start();
  const flix::Status measured = measure();
  spans.Stop();
  spans.Drain();
  std::error_code ignored;
  const double file_mb =
      static_cast<double>(std::filesystem::file_size(path, ignored)) / 1e6;
  std::filesystem::remove(path, ignored);
  std::filesystem::remove(bare_path, ignored);
  if (!measured.ok()) return measured;

  metrics.Set("storage.save_ms", save, "ms");
  metrics.Set("storage.file_mb", file_mb, "MB");
  metrics.Set("storage.open_verify_ms", open_verify, "ms");
  metrics.Set("storage.open_noverify_ms", open_noverify, "ms");
  metrics.Set("storage.checksum_sweep_ms", open_verify - open_noverify, "ms");
  metrics.Set("flix.load_noverify_ms", load, "ms");
  metrics.Set("storage.landmark_verify_ms", load - load_bare, "ms");
  metrics.Set("flix.load_views_ms", load_bare - open_noverify, "ms");
  return flix::Status::Ok();
}

void MeasureIndexLayers(const Flix& flix, const std::vector<Op>& reads,
                        size_t repeats, SpanLog& spans, MetricSet& metrics) {
  const flix::core::MetaDocumentSet& set = flix.meta_documents();
  std::vector<double> open_us[3];
  double pull_ns[3] = {0, 0, 0};
  double pulls[3] = {0, 0, 0};
  double distance_ns = 0, distances = 0;
  spans.Start();
  for (size_t i = 0; i < reads.size(); ++i) {
    const Op& op = reads[i];
    if (op.kind == OpKind::kTopK) {
      const auto index = set.docs[set.meta_of_node[op.start]].index.Acquire();
      const NodeId local = set.local_of_node[op.start];
      uint64_t best_open = UINT64_MAX, best_pull = UINT64_MAX;
      size_t pulled = 0;
      for (size_t r = 0; r < repeats; ++r) {
        flix::obs::TraceSpan span(nullptr, "index.cursor");
        span.AddAttr("op", static_cast<int64_t>(i));
        const uint64_t t0 = NowNs();
        auto cursor = index->DescendantsByTagCursor(local, op.tag);
        cursor->Next();
        const uint64_t t1 = NowNs();
        pulled = 0;
        while (pulled < kTopK && cursor->Next()) ++pulled;
        const uint64_t t2 = NowNs();
        best_open = std::min(best_open, t1 - t0);
        best_pull = std::min(best_pull, t2 - t1);
      }
      if (const int slot = Slot(index->kind()); slot >= 0) {
        open_us[slot].push_back(static_cast<double>(best_open) / 1e3);
        if (pulled > 0) {
          pull_ns[slot] += static_cast<double>(best_pull);
          pulls[slot] += static_cast<double>(pulled);
        }
      }
    } else if (op.kind == OpKind::kPoint) {
      for (const auto& [a, b] : op.pairs) {
        const uint32_t part = set.meta_of_node[a];
        const auto index = set.docs[part].index.Acquire();
        if (part != set.meta_of_node[b] ||
            index->kind() != StrategyKind::kHopi) {
          continue;
        }
        uint64_t best = UINT64_MAX;
        for (size_t r = 0; r < repeats; ++r) {
          flix::obs::TraceSpan span(nullptr, "index.distance");
          span.AddAttr("op", static_cast<int64_t>(i));
          const uint64_t t0 = NowNs();
          index->DistanceBetween(set.local_of_node[a], set.local_of_node[b]);
          best = std::min(best, NowNs() - t0);
        }
        distance_ns += static_cast<double>(best);
        ++distances;
      }
    }
    spans.Drain();
  }
  spans.Stop();
  for (int slot = 0; slot < 3; ++slot) {
    const std::string name = kStrategies[slot];
    metrics.Set("index.cursor_open_us." + name, Median(open_us[slot]), "us");
    metrics.Set("index.pull_ns." + name,
                pulls[slot] > 0 ? pull_ns[slot] / pulls[slot] : 0, "ns");
  }
  metrics.Set("index.distance_us.hopi",
              distances > 0 ? distance_ns / distances / 1e3 : 0, "us");
}

double MeasureBlindPointQps(Flix& flix, const std::vector<Op>& reads,
                            size_t repeats, SpanLog& spans) {
  flix.SetLandmarksEnabled(false);
  std::vector<double> pairs_per_s;
  Answer answer;
  spans.Start();
  for (size_t i = 0; i < reads.size(); ++i) {
    if (reads[i].kind != OpKind::kPoint) continue;
    uint64_t best = UINT64_MAX;
    for (size_t r = 0; r < repeats; ++r) {
      flix::obs::TraceSpan span(nullptr, "op.point_blind");
      span.AddAttr("op", static_cast<int64_t>(i));
      best = std::min(best, RunRead(flix, reads[i], answer).total_ns);
    }
    pairs_per_s.push_back(static_cast<double>(reads[i].pairs.size()) /
                          (static_cast<double>(best) / 1e9));
    spans.Drain();
  }
  spans.Stop();
  flix.SetLandmarksEnabled(true);
  return Median(std::move(pairs_per_s));
}

}  // namespace flixbench
