// Per-layer metrics of the traced run. The build layers come from the
// program itself (FlixStats and Flix::Build's own spans) over the timed
// passes' set-ups; the storage and index probes call the public API, each
// call in a span (README.md lists the metrics with the end-to-end metric
// each should move).
#ifndef FLIXBENCH_LAYERS_H_
#define FLIXBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "flix/flix.h"
#include "inputs.h"
#include "measure.h"

namespace flixbench {

// Layer times of one pass's set-up, in milliseconds.
struct BuildSample {
  double parse = 0;          // xml.parse span of the ingest
  double resolve_links = 0;  // xml.resolve_links span of the ingest
  double build = 0;          // FlixStats::build_ms
  double graph = 0;          // self time of the flix.build span
  double mdb = 0;            // FlixStats::mdb_ms
  double iss = 0;            // FlixStats::iss_ms
  double index[3] = {0, 0, 0};  // per_meta build_ms of ppo, hopi, apex
  double landmarks = 0;      // flix.build.landmarks span
};

// The sample of one set-up: `built` and the spans its cycle recorded.
BuildSample SampleBuild(const IngestTimes& ingest, const flix::core::Flix& built,
                        const std::vector<flix::obs::TraceEvent>& spans);

// Medians over the passes' set-ups, plus the sizes and shape of `built`.
void ReportBuildLayers(const std::vector<BuildSample>& samples,
                       const flix::core::Flix& built, MetricSet& metrics);

// Paged save to `path`, reader open with and without the checksum sweep,
// and Flix::Load without checksums of that file and of the same index saved
// without its landmark segment; best of `repeats`. Removes the files it
// wrote.
flix::Status MeasureStorageLayers(const flix::core::Flix& built,
                                  const flix::core::FlixOptions& options,
                                  const std::string& path, size_t repeats,
                                  SpanLog& spans, MetricSet& metrics);

// Cursor replay on each top-k op's start partition (open plus first Next,
// then per-pull cost), per strategy, and HOPI DistanceBetween on point
// pairs inside one HOPI partition.
void MeasureIndexLayers(const flix::core::Flix& flix,
                        const std::vector<Op>& reads, size_t repeats,
                        SpanLog& spans, MetricSet& metrics);

// Point batches with the landmark cache switched off, each at its best of
// `repeats`: pairs per second of the median batch, like point_qps.
double MeasureBlindPointQps(flix::core::Flix& flix,
                            const std::vector<Op>& reads, size_t repeats,
                            SpanLog& spans);

}  // namespace flixbench

#endif  // FLIXBENCH_LAYERS_H_
