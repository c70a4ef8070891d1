// Central registry of every `flix.*` metric and trace-span name.
//
// The observability layer interns metrics by name (obs/metrics.h), so a
// typo'd string silently creates a parallel metric that no exporter, bench
// gate or adaptivity loop ever reads. This header is the single source of
// truth: production code refers to metrics through these constants, and
// tools/lint_flix.py (run in CI next to check_markdown_links.py) rejects any
// `"flix.*"` string literal in src/ or tools/ that is not declared here —
// including new literals added in future PRs.
//
// Conventions:
//   * Counters/gauges/histograms are grouped by subsystem prefix
//     (flix.build, flix.query, flix.cache, ...); histogram names end in the
//     unit (`_ns` for nanoseconds).
//   * Span names (obs::TraceSpan) share the namespace: a phase that has both
//     a latency histogram and a span uses `x.phase_ns` / `x.phase`.
//   * Adding a metric = add the constant here, then use it; the linter keeps
//     the two in sync in both directions (unused constants are fine,
//     undeclared literals are not).
#ifndef FLIX_OBS_NAMES_H_
#define FLIX_OBS_NAMES_H_

namespace flix::obs::names {

// Common prefix of every FliX metric (exporter filters, `flixctl stats`).
inline constexpr char kMetricPrefix[] = "flix.";

// --- Build / load phases (flix/flix.cc, flix/index_builder.cc) ------------
inline constexpr char kBuildCount[] = "flix.build.count";
inline constexpr char kBuildTotalNs[] = "flix.build.total_ns";
inline constexpr char kBuildMdbNs[] = "flix.build.mdb_ns";
inline constexpr char kBuildIssNs[] = "flix.build.iss_ns";
inline constexpr char kBuildLandmarksNs[] = "flix.build.landmarks_ns";
inline constexpr char kBuildIbPpoNs[] = "flix.build.ib_ppo_ns";
inline constexpr char kBuildIbHopiNs[] = "flix.build.ib_hopi_ns";
inline constexpr char kBuildIbApexNs[] = "flix.build.ib_apex_ns";
inline constexpr char kBuildIbOtherNs[] = "flix.build.ib_other_ns";
inline constexpr char kBuildMetaDocuments[] = "flix.build.meta_documents";
inline constexpr char kBuildCrossLinks[] = "flix.build.cross_links";
inline constexpr char kBuildIndexBytes[] = "flix.build.index_bytes";
inline constexpr char kBuildStrategyPpo[] = "flix.build.strategy_ppo";
inline constexpr char kBuildStrategyHopi[] = "flix.build.strategy_hopi";
inline constexpr char kBuildStrategyApex[] = "flix.build.strategy_apex";
inline constexpr char kLoadCount[] = "flix.load.count";
inline constexpr char kLoadTotalNs[] = "flix.load.total_ns";

// --- PEE queries (flix/pee.cc) --------------------------------------------
inline constexpr char kQueryCount[] = "flix.query.count";
inline constexpr char kQueryFacadeCount[] = "flix.query.facade_count";
inline constexpr char kQueryLatencyNs[] = "flix.query.latency_ns";
inline constexpr char kQueryResults[] = "flix.query.results";
inline constexpr char kQueryEntriesProcessed[] = "flix.query.entries_processed";
inline constexpr char kQueryEntriesDominated[] = "flix.query.entries_dominated";
inline constexpr char kQueryDominanceProbes[] = "flix.query.dominance_probes";
inline constexpr char kQueryLinksFollowed[] = "flix.query.links_followed";
inline constexpr char kQueryIndexProbes[] = "flix.query.index_probes";
inline constexpr char kQueryResultsEmitted[] = "flix.query.results_emitted";
inline constexpr char kQueryResultsOutOfOrder[] =
    "flix.query.results_out_of_order";
inline constexpr char kQueryCursorOpened[] = "flix.query.cursor.opened";
inline constexpr char kQueryCursorPulled[] = "flix.query.cursor.pulled";
inline constexpr char kQueryCursorSaved[] = "flix.query.cursor.saved";
inline constexpr char kQueryPointCount[] = "flix.query.point_count";
inline constexpr char kQueryPointPops[] = "flix.query.point_pops";
inline constexpr char kQueryPointLatencyNs[] = "flix.query.point_latency_ns";

// --- Landmark-guided point queries (flix/pee.cc, flix/landmarks.cc) -------
inline constexpr char kGuidedPrunedEntries[] = "flix.pee.guided.pruned_entries";
inline constexpr char kGuidedHeuristicHits[] = "flix.pee.guided.heuristic_hits";
inline constexpr char kGuidedStaleReads[] = "flix.pee.guided.stale_reads";
inline constexpr char kLandmarksRefreshes[] = "flix.landmarks.refreshes";
inline constexpr char kLandmarksCount[] = "flix.landmarks.count";
inline constexpr char kLandmarksGeneration[] = "flix.landmarks.generation";

// --- Per-strategy cursor pulls (src/index/*.cc) ---------------------------
inline constexpr char kCursorPulledPpo[] = "flix.cursor.pulled.ppo";
inline constexpr char kCursorPulledHopi[] = "flix.cursor.pulled.hopi";
inline constexpr char kCursorPulledApex[] = "flix.cursor.pulled.apex";
inline constexpr char kCursorPulledSummary[] = "flix.cursor.pulled.summary";
inline constexpr char kCursorPulledTc[] = "flix.cursor.pulled.tc";
// HOPI merge-cursor work: heap pops, and inverted-list entries a head steps
// over without pushing (already seen, or the wrong tag).
inline constexpr char kCursorHeapPopsHopi[] = "flix.cursor.heap_pops.hopi";
inline constexpr char kCursorSkippedHopi[] = "flix.cursor.skipped.hopi";

// --- Query cache (flix/flix.cc gauges over QueryCache::Stats) -------------
inline constexpr char kCacheSize[] = "flix.cache.size";
inline constexpr char kCacheCapacity[] = "flix.cache.capacity";
inline constexpr char kCacheHits[] = "flix.cache.hits";
inline constexpr char kCacheMisses[] = "flix.cache.misses";
inline constexpr char kCacheInsertions[] = "flix.cache.insertions";
inline constexpr char kCacheOverwrites[] = "flix.cache.overwrites";
inline constexpr char kCacheEvictions[] = "flix.cache.evictions";

// --- Adaptive ISS (flix/adapt.cc) -----------------------------------------
inline constexpr char kAdaptRecommended[] = "flix.adapt.recommended";
inline constexpr char kAdaptMigrated[] = "flix.adapt.migrated";
inline constexpr char kAdaptRejectedHysteresis[] =
    "flix.adapt.rejected_hysteresis";
inline constexpr char kAdaptValidationFailed[] = "flix.adapt.validation_failed";

// --- Correctness tooling (src/check/) -------------------------------------
inline constexpr char kCheckValidations[] = "flix.check.validations";
inline constexpr char kCheckViolations[] = "flix.check.violations";
inline constexpr char kCheckOracleQueries[] = "flix.check.oracle_queries";

// --- Trace span names (obs::TraceSpan; Chrome-trace timeline rows) --------
inline constexpr char kSpanBuild[] = "flix.build";
inline constexpr char kSpanBuildMdb[] = "flix.build.mdb";
inline constexpr char kSpanBuildLandmarks[] = "flix.build.landmarks";
inline constexpr char kSpanIss[] = "flix.iss";
inline constexpr char kSpanIb[] = "flix.ib";
inline constexpr char kSpanLandmarksRebuild[] = "flix.landmarks.rebuild";

}  // namespace flix::obs::names

#endif  // FLIX_OBS_NAMES_H_
