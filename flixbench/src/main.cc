// flixbench: end-to-end benchmark of FliX over a synthetic DBLP corpus.
//
//   flixbench --workload dblp-hybrid|dblp-hopi|dblp-rebuild --seed N
//             --seconds S --trace 0|1 [--pubs N] [--work-dir DIR]
//
// One process, one client in a closed loop. The run generates the corpus
// and the op list from --seed, times set-up, checks every distinct op once
// against a BFS oracle, then replays the op list in passes for --seconds
// and keeps each op's best time over the passes. The last stdout line is
// the result object; the lines before it are diagnostics. README.md explains
// the workloads, the metrics and why the timing works this way.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "flix/flix.h"
#include "inputs.h"
#include "layers.h"
#include "measure.h"
#include "obs/metrics.h"
#include "obs/names.h"

namespace flixbench {
namespace {

using flix::core::Flix;
using flix::core::FlixOptions;

// Every run indexes the same corpus; --seed draws the op list. Corpora of
// different seeds differ by several percent in HOPI label size (42.2 to
// 46.0 MB over five seeds on dblp-hopi), which would swamp the run-to-run
// spread of the size and build metrics.
constexpr uint64_t kCorpusSeed = 42;

// Publications in the corpus (about 27k elements). At 2,000, runs spread
// about twice as far: a larger working set feels more of the memory
// traffic of other tenants, and the monolithic HOPI build (1.2 s at 2,000,
// 0.15 s at 1,000) left dblp-hopi 7-8 passes per run.
constexpr size_t kPublications = 1000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  size_t publications = kPublications;
  std::string work_dir = ".";
};

struct Workload {
  std::string name;
  FlixOptions options;
  size_t topk = 120;  // distinct top-k queries (p90 needs at least 100)
  // Reads go to the instance the pass itself built on the heap, or, on
  // dblp-rebuild, to the one it then saved and reopened mapped. A fresh
  // instance per pass means each op's best time is taken over several
  // instances, not the one layout a single set-up happened to get.
  bool reads_on_reopened = false;
};

std::vector<Workload> Workloads() {
  std::vector<Workload> all;
  {
    // Default FlixOptions: ~100 partitions (PPO groups + one HOPI part), so
    // the PEE's queue, dominance checks and link expansion dominate.
    Workload w;
    w.name = "dblp-hybrid";
    all.push_back(w);
  }
  {
    // The paper's monolithic HOPI competitor: one partition, so HOPI's
    // cursors and 2-hop labels do the work and the PEE almost none.
    Workload w;
    w.name = "dblp-hopi";
    w.options.config = flix::core::MdbConfig::kUnconnectedHopi;
    w.options.partition_bound = std::numeric_limits<size_t>::max();
    w.topk = 160;
    all.push_back(w);
  }
  {
    // Writes beside reads: a HOPI size cap below the dense linked
    // partition makes the auto ISS pick APEX for it.
    Workload w;
    w.name = "dblp-rebuild";
    w.reads_on_reopened = true;
    w.options.hopi_max_nodes = 1000;
    all.push_back(w);
  }
  return all;
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--pubs") {
      args.publications = std::strtoull(value, nullptr, 10);
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0 &&
         args.publications >= 20;
}

// Fixed probes of the host, timed between passes: an ALU-bound loop and a
// dependent walk over 4 MiB, which feels shared-cache and memory pressure.
// Printed beside the run so a noisy figure can be traced to the host.
class NoiseProbe {
 public:
  NoiseProbe() : ring_(1u << 20) {
    // Sattolo's shuffle: a single cycle through every slot.
    for (uint32_t i = 0; i < ring_.size(); ++i) ring_[i] = i;
    flix::Rng rng(7);
    for (size_t i = ring_.size() - 1; i > 0; --i) {
      std::swap(ring_[i], ring_[rng.Uniform(i)]);
    }
  }

  void Sample() {
    uint64_t t0 = NowNs();
    uint64_t x = t0;
    for (int i = 0; i < 2'000'000; ++i) x = x * 6364136223846793005ULL + 1;
    alu_us_.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    t0 = NowNs();
    uint32_t at = static_cast<uint32_t>(x) & (ring_.size() - 1);
    for (int i = 0; i < 200'000; ++i) at = ring_[at];
    mem_us_.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    sink_ = sink_ + x + at;
  }

  std::string Summary() const {
    const auto line = [](const char* name, const std::vector<double>& v) {
      if (v.empty()) return std::string();
      const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
      char buf[160];
      std::snprintf(buf, sizeof(buf), " %s_us median=%.0f min=%.0f max=%.0f",
                    name, Median(v), *lo, *hi);
      return std::string(buf);
    };
    return "# host-noise over " + std::to_string(alu_us_.size()) + " samples:" +
           line("alu", alu_us_) + line("mem4m", mem_us_);
  }

 private:
  std::vector<uint32_t> ring_;
  std::vector<double> alu_us_, mem_us_;
  volatile uint64_t sink_ = 0;  // keeps the loops from being optimized out
};

// Best time of one distinct op over the passes.
struct Best {
  uint64_t first = UINT64_MAX;
  uint64_t total = UINT64_MAX;
  void Add(const Timing& t) {
    first = std::min(first, t.first_ns);
    total = std::min(total, t.total_ns);
  }
  bool seen() const { return total != UINT64_MAX; }
};

uint64_t DigestOf(const Answer& answer) {
  Digest digest;
  digest.Add(answer);
  return digest.value();
}

// The PEE's spans of a type op's fastest traced execution.
struct TypeSpans {
  uint64_t total = UINT64_MAX;  // the op's span
  uint64_t entry_self = 0;      // self time of pee.entry
  uint64_t cursor_local = 0;    // pee.cursor.local: cursor open + first pull
  void Add(const std::vector<flix::obs::TraceEvent>& batch) {
    const uint64_t t = SpanLog::TotalNs(batch, "op.type");
    if (t >= total) return;
    total = t;
    entry_self = SpanLog::SelfNs(batch, "pee.entry");
    cursor_local = SpanLog::TotalNs(batch, "pee.cursor.local");
  }
};

// How a timed read runs; untraced runs use only kPlain.
enum Mode { kPlain, kTraced, kProfilerOff, kNumModes };

class Bench {
 public:
  Bench(const Args& args, Workload workload)
      : args_(args), w_(std::move(workload)),
        path_(args.work_dir + "/flixbench-" + w_.name + ".flix") {}

  ~Bench() {
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }

  int Run() {
    if (!Prepare()) return 1;
    CheckPass();
    if (instance_.opened == nullptr) return Fatal("the check pass's cycle");
    TimedPasses();
    if (instance_.opened == nullptr) return Fatal("a timed pass's cycle");
    return Report();
  }

 private:
  // Reports an error that ends the run before any result; returns the
  // process's exit code.
  static int Fatal(const std::string& what) {
    std::fprintf(stderr, "flixbench: %s failed\n", what.c_str());
    return 1;
  }

  // Records a failed op (wrong answer or error status).
  void Failed(const std::string& what) {
    ++failed_;
    if (failed_ <= 10) std::printf("# FAILED %s\n", what.c_str());
  }

  bool Prepare() {
    corpus_ = GenerateCorpus(kCorpusSeed, args_.publications);
    {
      // Only sampling the ops needs a collection of its own.
      auto sampling = Ingest(corpus_);
      if (!sampling.ok()) {
        Fatal("ingest: " + sampling.status().ToString());
        return false;
      }
      graph_ = (*sampling)->BuildGraph();
      reads_ = MakeReadOps(**sampling, graph_, w_.topk, args_.seed);
    }
    oracle_ = std::make_unique<Oracle>(graph_);
    for (const Op& op : reads_) ops_digest_.Add(op);
    for (const Op& op : reads_) ++kind_count_[static_cast<size_t>(op.kind)];
    read_best_.assign(kNumModes, std::vector<Best>(reads_.size()));
    type_spans_.resize(reads_.size());
    expected_.resize(reads_.size());
    harness_heap_mb_ = HeapMb();
    return true;
  }

  // Bytes the allocator has handed out and not taken back, heap and
  // mmapped chunks together.
  static double HeapMb() {
    const struct mallinfo2 info = mallinfo2();
    return static_cast<double>(info.uordblks + info.hblkhd) / 1e6;
  }

  Flix& ReadTarget() {
    return w_.reads_on_reopened ? *instance_.opened : *instance_.built;
  }

  // Times of the cycle's steps, in nanoseconds.
  struct CycleTimes {
    IngestTimes ingest;
    uint64_t setup_ns = 0;  // ingest + build
    uint64_t build_ns = 0;
    uint64_t save_ns = 0;
    uint64_t open_ns = 0;  // Flix::Load plus the first result
  };

  // Set-up (ingest, then Flix::Build), paged save, reopen. The previous
  // pass's instances are released first, so only one set lives at a time.
  // False (and a failed op) when a step returns an error; no instance is
  // left then.
  bool RunCycle(CycleTimes& times) {
    // The instances reference the collection: drop them first.
    instance_.opened.reset();
    instance_.built.reset();
    instance_.collection.reset();
    Instance next;
    {
      flix::obs::TraceSpan span(nullptr, "op.ingest");
      auto collection = Ingest(corpus_, &times.ingest);
      if (!collection.ok()) {
        Failed("ingest: " + collection.status().ToString());
        return false;
      }
      next.collection = std::move(collection).value();
      times.setup_ns = span.ElapsedNanos();
    }
    {
      flix::obs::TraceSpan span(nullptr, "op.build");
      auto built = Flix::Build(*next.collection, w_.options);
      times.build_ns = span.ElapsedNanos();
      times.setup_ns += times.build_ns;
      if (!built.ok()) {
        Failed("build: " + built.status().ToString());
        return false;
      }
      next.built = std::move(built).value();
    }
    {
      flix::obs::TraceSpan span(nullptr, "op.save");
      const flix::Status saved =
          next.built->Save(path_, Flix::IndexFormat::kMapped);
      times.save_ns = span.ElapsedNanos();
      if (!saved.ok()) {
        Failed("save: " + saved.ToString());
        return false;
      }
    }
    {
      size_t first_results = 0;
      flix::obs::TraceSpan span(nullptr, "op.open");
      auto opened = Flix::Load(path_, *next.collection);
      if (opened.ok()) {
        const Op& q = reads_.front();
        (*opened)->pee().FindDescendantsByTag(
            q.start, q.tag, {.max_results = 1},
            [&](const flix::core::Result&) { return ++first_results, true; });
      }
      times.open_ns = span.ElapsedNanos();
      if (!opened.ok() || first_results != 1) {
        Failed("open: " + (opened.ok() ? std::string("no first result")
                                       : opened.status().ToString()));
        return false;
      }
      next.opened = std::move(opened).value();
    }
    instance_ = std::move(next);
    return true;
  }

  // Runs every distinct op once, untimed, and checks its answer: against
  // the BFS oracle, and against the other instance (the reopened mapped
  // one for reads on the heap instance, and the other way round). The
  // answers' digests become the expected outcome of every timed execution:
  // the run keeps no answer itself, so its memory does not grow with the
  // answer sizes that --seed happens to draw.
  void CheckPass() {
    CycleTimes times;
    attempted_ += 4;
    if (!RunCycle(times)) return;
    const Flix& target = ReadTarget();
    const Flix& other =
        w_.reads_on_reopened ? *instance_.built : *instance_.opened;
    Answer again;
    for (size_t i = 0; i < reads_.size(); ++i) {
      const Op& op = reads_[i];
      const size_t kind = static_cast<size_t>(op.kind);
      ++attempted_;
      flix::core::QueryStats stats;
      const std::array<uint64_t, 3> before = LandmarkCounters();
      RunRead(target, op, answer_, &stats);
      const std::array<uint64_t, 3> after = LandmarkCounters();
      for (size_t c = 0; c < 3; ++c) landmark_counts_[c] += after[c] - before[c];
      answers_digest_.Add(answer_);
      expected_[i] = DigestOf(answer_);
      AddStats(kind, stats, answer_.results.size());
      const std::string wrong = oracle_->Check(op, answer_);
      RunRead(other, op, again);
      if (!wrong.empty()) {
        Failed(std::string(KindName(op.kind)) + " op " + std::to_string(i) +
               ": " + wrong);
      } else if (!(again == answer_)) {
        Failed(std::string(KindName(op.kind)) + " op " + std::to_string(i) +
               ": built and reopened instances disagree");
      }
    }
  }

  // The guided point-query counters of the metrics registry: queue pops,
  // entries pruned by a landmark bound, heuristic hits.
  static std::array<uint64_t, 3> LandmarkCounters() {
    auto& registry = flix::obs::MetricsRegistry::Global();
    return {registry.GetCounter(flix::obs::names::kQueryPointPops).Value(),
            registry.GetCounter(flix::obs::names::kGuidedPrunedEntries).Value(),
            registry.GetCounter(flix::obs::names::kGuidedHeuristicHits).Value()};
  }

  void AddStats(size_t kind, const flix::core::QueryStats& s, size_t results) {
    Counts& c = counts_[kind];
    c.processed += s.entries_processed;
    c.dominated += s.entries_dominated;
    c.links += s.links_followed;
    c.probes += s.index_probes;
    c.opened += s.cursors_opened;
    c.pulls += s.cursor_pulls;
    c.saved += s.cursor_saved;
    c.results += results;
  }

  // Replays the op list until --seconds is spent: each pass runs the cycle,
  // then every read op in a fresh seeded order. Each execution's answer
  // must equal the checked one. The traced run times every op back to
  // back untraced and traced (top-k ops also with the profiler off), so the
  // modes it compares see the same host conditions.
  void TimedPasses() {
    std::vector<size_t> order(reads_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    const uint64_t start = NowNs();
    const double budget_ns = args_.seconds * 1e9;
    for (size_t pass = 0;; ++pass) {
      if (args_.trace) spans_.Start();
      CycleTimes times;
      attempted_ += 4;
      const bool cycled = RunCycle(times);
      spans_.Stop();
      const std::vector<flix::obs::TraceEvent> cycle_spans = spans_.Drain();
      if (!cycled) return;  // no instance to read from
      setup_ns_.push_back(static_cast<double>(times.setup_ns));
      save_ns_.push_back(static_cast<double>(times.save_ns));
      open_ns_.push_back(static_cast<double>(times.open_ns));
      heap_mb_.push_back(HeapMb());
      build_samples_.push_back(
          SampleBuild(times.ingest, *instance_.built, cycle_spans));
      flix::Rng rng(args_.seed * 1000003 + pass);
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.Uniform(i)]);
      }
      for (const size_t i : order) {
        if (!args_.trace) {
          TimeRead(i, kPlain, pass);
          continue;
        }
        // Each pass starts from another mode, so no mode always runs
        // first, on the coldest caches.
        const size_t modes = reads_[i].kind == OpKind::kTopK ? 3 : 2;
        for (size_t k = 0; k < modes; ++k) {
          TimeRead(i, static_cast<Mode>((pass + k) % modes), pass);
        }
      }
      noise_.Sample();
      ++passes_;
      const double elapsed = static_cast<double>(NowNs() - start);
      if (passes_ >= 2 &&
          elapsed + elapsed / static_cast<double>(passes_) > budget_ns) {
        break;
      }
    }
    measured_s_ = static_cast<double>(NowNs() - start) / 1e9;
  }

  void TimeRead(size_t i, Mode mode, size_t pass) {
    static constexpr const char* kOpSpans[kNumOpKinds] = {
        "op.topk", "op.drain", "op.exact", "op.type", "op.point"};
    Flix& target = ReadTarget();
    const OpKind kind = reads_[i].kind;
    ++attempted_;
    if (mode == kTraced) spans_.Start();
    target.profiler().SetEnabled(mode != kProfilerOff);
    Timing t;
    {
      flix::obs::TraceSpan span(nullptr, kOpSpans[static_cast<size_t>(kind)]);
      span.AddAttr("op", static_cast<int64_t>(i));
      t = RunRead(target, reads_[i], answer_);
    }
    target.profiler().SetEnabled(true);
    if (mode == kTraced) {
      spans_.Stop();
      const std::vector<flix::obs::TraceEvent> batch = spans_.Drain();
      if (kind == OpKind::kType) type_spans_[i].Add(batch);
    }
    if (DigestOf(answer_) == expected_[i]) {
      read_best_[mode][i].Add(t);
    } else {
      Failed(std::string(KindName(reads_[i].kind)) + " op " +
             std::to_string(i) + ": answer changed in pass " +
             std::to_string(pass));
    }
  }

  // Best times (ns) of the distinct ops of one kind in one mode.
  std::vector<double> BestOf(OpKind kind, Mode mode, bool first) const {
    std::vector<double> out;
    for (size_t i = 0; i < reads_.size(); ++i) {
      const Best& b = read_best_[mode][i];
      if (reads_[i].kind == kind && b.seen()) {
        out.push_back(static_cast<double>(first ? b.first : b.total));
      }
    }
    return out;
  }

  void EndToEndMetrics(MetricSet& m) const {
    // Set-up runs at the start of every pass, so its median is taken over
    // the whole run, not over a burst the host may happen to slow down.
    m.Set("setup_s", Median(setup_ns_) / 1e9, "s");
    const std::vector<double> topk = BestOf(OpKind::kTopK, kPlain, false);
    m.Set("topk_qps", 1e9 / Mean(topk),
          "1/s");
    m.Set("ttfr_p50_us", Median(BestOf(OpKind::kTopK, kPlain, true)) / 1e3,
          "us");
    m.Set("top100_p50_us", Median(topk) / 1e3, "us");
    // p90 only where at least 100 distinct ops back it.
    if (topk.size() >= 100) {
      m.Set("top100_p90_us", Quantile(topk, 0.9) / 1e3, "us");
    }
    // Means, not medians: answer sizes are heavy-tailed, and over a
    // stratified op list the mean moves far less from seed to seed.
    m.Set("drain_mean_ms", Mean(BestOf(OpKind::kDrain, kPlain, false)) / 1e6,
          "ms");
    m.Set("exact_ttfr_mean_ms",
          Mean(BestOf(OpKind::kExact, kPlain, true)) / 1e6, "ms");
    // Per median batch: a few pairs cost far more than the rest, so a sum
    // over the batches would follow whichever pairs the seed drew.
    m.Set("point_qps",
          static_cast<double>(kPairsPerBatch) /
              (Median(BestOf(OpKind::kPoint, kPlain, false)) / 1e9),
          "1/s");
    m.Set("type_p50_ms", Median(BestOf(OpKind::kType, kPlain, false)) / 1e6,
          "ms");
    // The cycle ops run once per pass and their per-pass times spread wide
    // (84 to 134 ms over one dblp-hybrid run's builds), so the median over
    // the passes moves less from run to run than the best does. The build
    // is not reported on its own here: it swings with the host as much as
    // the whole set-up does (README.md, "Timing"), so only setup_s gates it.
    m.Set("save_ms", Median(save_ns_) / 1e6, "ms");
    m.Set("open_ms", Median(open_ns_) / 1e6, "ms");
    m.Set("index_mb",
          static_cast<double>(instance_.built->stats().total_index_bytes) / 1e6,
          "MB");
    // Live heap bytes, not the resident set: how much of the freed heap
    // glibc keeps resident depends on where earlier allocations landed, and
    // the peak resident set moved by 2.4 MB (dblp-hybrid) and 8 MB
    // (dblp-hopi) from seed to seed (README.md, "Timing").
    m.Set("heap_mb", Median(heap_mb_) - harness_heap_mb_, "MB");
  }

  static double PeakRssMb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

  void LayerMetrics(MetricSet& m) {
    ReportBuildLayers(build_samples_, *instance_.built, m);
    // Its own file: the reopened instance still maps path_.
    if (flix::Status s = MeasureStorageLayers(*instance_.built, w_.options,
                                              path_ + ".layers", 9, spans_, m);
        !s.ok()) {
      Failed("storage layers: " + s.ToString());
    }
    MeasureIndexLayers(ReadTarget(), reads_, 3, spans_, m);

    // Admission of the start elements of A//B queries, from the PEE's own
    // spans in each type op's fastest traced execution: the self time of
    // pee.entry (the entry-point dominance check) and pee.cursor.local (a
    // start's by-tag cursor, opened and pulled once), in ms per op and as
    // shares of those executions.
    std::vector<double> entry_ms, local_ms;
    double entry_sum = 0, local_sum = 0, total_sum = 0;
    for (const TypeSpans& t : type_spans_) {
      if (t.total == UINT64_MAX) continue;
      entry_ms.push_back(static_cast<double>(t.entry_self) / 1e6);
      local_ms.push_back(static_cast<double>(t.cursor_local) / 1e6);
      entry_sum += static_cast<double>(t.entry_self);
      local_sum += static_cast<double>(t.cursor_local);
      total_sum += static_cast<double>(t.total);
    }
    m.Set("pee.type_entry_self_ms", Median(entry_ms), "ms");
    m.Set("pee.type_entry_share", total_sum > 0 ? entry_sum / total_sum : 0,
          "ratio");
    m.Set("pee.type_cursor_local_ms", Median(local_ms), "ms");
    m.Set("pee.type_cursor_local_share",
          total_sum > 0 ? local_sum / total_sum : 0, "ratio");

    const char* kinds[] = {"topk", "drain", "exact", "type"};
    for (size_t k = 0; k < 4; ++k) {
      const Counts& c = counts_[k];
      const std::string suffix = std::string(".") + kinds[k];
      const auto count = [&](const char* name, size_t value) {
        m.Set(std::string("pee.") + name + suffix, static_cast<double>(value),
              "count");
      };
      count("entries_processed", c.processed);
      count("entries_dominated", c.dominated);
      m.Set("pee.dominated_share" + suffix,
            c.processed + c.dominated > 0
                ? static_cast<double>(c.dominated) /
                      static_cast<double>(c.processed + c.dominated)
                : 0,
            "ratio");
      count("links_followed", c.links);
      count("index_probes", c.probes);
      count("cursors_opened", c.opened);
      count("cursor_pulls", c.pulls);
      m.Set("pee.pulls_per_result" + suffix,
            c.results > 0 ? static_cast<double>(c.pulls) /
                                static_cast<double>(c.results)
                          : 0,
            "ratio");
      count("cursor_saved", c.saved);
    }

    const char* landmark_names[] = {"landmarks.point_pops",
                                    "landmarks.pruned_entries",
                                    "landmarks.heuristic_hits"};
    for (size_t c = 0; c < 3; ++c) {
      m.Set(landmark_names[c], static_cast<double>(landmark_counts_[c]),
            "count");
    }
    m.Set("landmarks.blind_point_qps",
          MeasureBlindPointQps(ReadTarget(), reads_, 3, spans_), "1/s");

    // Service time of the read ops per mode, each op at its best.
    const auto service = [&](Mode mode, bool topk_only) {
      double total = 0;
      for (size_t i = 0; i < reads_.size(); ++i) {
        if (topk_only && reads_[i].kind != OpKind::kTopK) continue;
        if (!read_best_[kPlain][i].seen() || !read_best_[mode][i].seen()) {
          continue;
        }
        total += static_cast<double>(read_best_[mode][i].total);
      }
      return total;
    };
    m.Set("obs.profiler_share",
          service(kPlain, true) / service(kProfilerOff, true) - 1, "ratio");
    m.Set("trace.overhead_share",
          service(kTraced, false) / service(kPlain, false) - 1, "ratio");
    if (spans_.dropped() > 0) {
      Failed(std::to_string(spans_.dropped()) + " spans dropped by the trace ring");
    }
  }

  int Report() {
    MetricSet metrics;
    if (args_.trace) {
      LayerMetrics(metrics);
    } else {
      EndToEndMetrics(metrics);
    }

    const flix::core::FlixStats& stats = instance_.built->stats();
    std::printf("# workload=%s seed=%llu publications=%zu elements=%zu "
                "partitions=%zu (ppo %zu, hopi %zu, apex %zu)\n",
                w_.name.c_str(), static_cast<unsigned long long>(args_.seed),
                args_.publications, instance_.collection->NumElements(),
                stats.num_meta_documents, stats.num_ppo, stats.num_hopi,
                stats.num_apex);
    std::printf("# distinct ops:");
    for (size_t k = 0; k < kNumOpKinds; ++k) {
      std::printf(" %s=%zu", std::string(KindName(static_cast<OpKind>(k))).c_str(),
                  kind_count_[k]);
    }
    std::printf(" (+ ingest, build, save, open each pass)\n");
    std::printf("# passes=%zu measured_s=%.2f\n", passes_, measured_s_);
    std::printf("# digest ops=%016llx answers=%016llx\n",
                static_cast<unsigned long long>(ops_digest_.value()),
                static_cast<unsigned long long>(answers_digest_.value()));
    std::printf("%s\n", noise_.Summary().c_str());
    std::printf("# memory: heap of the harness %.1f MB, after the cycle "
                "%.1f MB (median); peak resident set %.1f MB\n",
                harness_heap_mb_, Median(heap_mb_), PeakRssMb());
    if (args_.trace) {
      std::printf("# %zu spans; self time by span (ms):", spans_.num_events());
      for (const auto& [name, ns] : spans_.self_times()) {
        std::printf(" %s=%.2f", name.c_str(), static_cast<double>(ns) / 1e6);
      }
      std::printf("\n");
      const std::string spans_path =
          args_.work_dir + "/spans-" + w_.name + "-" +
          std::to_string(args_.seed) + ".json";
      if (spans_.WriteJson(spans_path)) {
        std::printf("# first %zu spans written to %s\n",
                    std::min(spans_.num_events(), SpanLog::kKeptEvents),
                    spans_path.c_str());
      }
    }
    const bool correct = failed_ == 0 && metrics.AllFinite();
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", attempted_, failed_,
                metrics.ToJson().c_str());
    std::fflush(stdout);
    return 0;
  }

  struct Counts {
    size_t processed = 0, dominated = 0, links = 0, probes = 0, opened = 0,
           pulls = 0, saved = 0, results = 0;
  };

  const Args args_;
  const Workload w_;
  const std::string path_;
  SpanLog spans_;  // traced runs only

  Corpus corpus_;
  flix::graph::Digraph graph_;
  std::unique_ptr<Oracle> oracle_;
  std::vector<Op> reads_;
  size_t kind_count_[kNumOpKinds] = {};

  // What one cycle leaves behind. Members die in reverse order, so the
  // instances go before the collection they reference.
  struct Instance {
    std::unique_ptr<flix::xml::Collection> collection;
    std::unique_ptr<Flix> built;   // on the heap
    std::unique_ptr<Flix> opened;  // reopened from the paged file, mapped
  };
  Instance instance_;  // the latest pass's

  std::vector<double> setup_ns_;     // ingest + build, every pass
  std::vector<BuildSample> build_samples_;  // every pass
  std::vector<uint64_t> expected_;  // digest of each op's checked answer
  std::vector<std::vector<Best>> read_best_;  // [mode][op]
  std::vector<double> save_ns_, open_ns_;  // every pass
  std::vector<double> heap_mb_;            // after every pass's cycle
  std::vector<TypeSpans> type_spans_;      // [op], traced runs only
  double harness_heap_mb_ = 0;  // HeapMb() once the inputs are made
  Answer answer_;  // reused by every timed read
  Counts counts_[kNumOpKinds];
  std::array<uint64_t, 3> landmark_counts_ = {};  // see LandmarkCounters
  Digest ops_digest_, answers_digest_;
  size_t attempted_ = 0, failed_ = 0, passes_ = 0;
  double measured_s_ = 0;
  NoiseProbe noise_;  // made before the inputs, so it is part of the harness
};

}  // namespace
}  // namespace flixbench

int main(int argc, char** argv) {
  using namespace flixbench;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: flixbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--pubs N] [--work-dir DIR]\n");
    return 2;
  }
  for (Workload& w : Workloads()) {
    if (w.name == args.workload) return Bench(args, std::move(w)).Run();
  }
  std::fprintf(stderr, "flixbench: unknown workload %s\n",
               args.workload.c_str());
  return 2;
}
