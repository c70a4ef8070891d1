// Correctness-tooling tests on *clean* builds: the framework validator, the
// differential query oracle, and the lightweight Flix::Validate hook must
// all pass for every MDB configuration, and the flix.check.* counters must
// record the work. The companion mutation suite (check_mutation_test.cc)
// proves the same machinery rejects corrupted structures.
#include "check/validator.h"

#include <gtest/gtest.h>

#include "check/oracle.h"
#include "flix/flix.h"
#include "obs/metrics.h"
#include "workload/dblp_generator.h"
#include "workload/synthetic_generator.h"

namespace flix::check {
namespace {

core::FlixOptions Options(core::MdbConfig config, size_t bound = 100) {
  core::FlixOptions options;
  options.config = config;
  options.partition_bound = bound;
  return options;
}

std::unique_ptr<core::Flix> MustBuild(const xml::Collection& collection,
                                      const core::FlixOptions& options) {
  auto flix = core::Flix::Build(collection, options);
  EXPECT_TRUE(flix.ok()) << flix.status().ToString();
  return std::move(flix).value();
}

TEST(ValidatorTest, CleanSyntheticBuildPassesEveryConfig) {
  const auto collection = workload::GenerateSynthetic({.seed = 41});
  ASSERT_TRUE(collection.ok());
  for (const core::MdbConfig config :
       {core::MdbConfig::kNaive, core::MdbConfig::kMaximalPpo,
        core::MdbConfig::kUnconnectedHopi, core::MdbConfig::kHybrid}) {
    const auto flix = MustBuild(*collection, Options(config));
    const CheckReport report = ValidateFramework(*flix);
    EXPECT_TRUE(report.ok())
        << core::MdbConfigName(config) << ": " << report.violations.front();
    // Two framework checks plus one per meta document.
    EXPECT_GE(report.checks_run,
              2 + flix->meta_documents().docs.size());
  }
}

TEST(ValidatorTest, CleanMiniDblpBuildPasses) {
  workload::DblpOptions dblp;
  dblp.num_publications = 120;
  dblp.seed = 43;
  const auto collection = workload::GenerateDblp(dblp);
  ASSERT_TRUE(collection.ok());
  const auto flix =
      MustBuild(*collection, Options(core::MdbConfig::kHybrid, 60));
  const CheckReport report = ValidateFramework(*flix);
  EXPECT_TRUE(report.ok()) << report.violations.front();
}

TEST(ValidatorTest, FlixValidateHookPassesOnCleanBuild) {
  const auto collection = workload::GenerateSynthetic({.seed = 47});
  ASSERT_TRUE(collection.ok());
  const auto flix =
      MustBuild(*collection, Options(core::MdbConfig::kHybrid, 60));
  const Status status = flix->Validate();
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(OracleTest, CleanBuildShowsNoDiffs) {
  const auto collection = workload::GenerateSynthetic({.seed = 53});
  ASSERT_TRUE(collection.ok());
  for (const core::MdbConfig config :
       {core::MdbConfig::kNaive, core::MdbConfig::kMaximalPpo,
        core::MdbConfig::kUnconnectedHopi, core::MdbConfig::kHybrid}) {
    const auto flix = MustBuild(*collection, Options(config, 60));
    OracleOptions options;
    options.seed = 59;
    options.num_queries = 8;
    options.num_connection_pairs = 24;
    const OracleReport report = RunDifferentialOracle(*flix, options);
    EXPECT_TRUE(report.ok())
        << core::MdbConfigName(config) << ": " << report.diffs.front();
    EXPECT_GT(report.queries_diffed, 0u);
    // A//B (streamed and materialized) and bidirectional connection tests
    // run in every configuration.
    EXPECT_GT(report.type_queries_diffed, 0u) << core::MdbConfigName(config);
    // ... and one of the A//B queries hands a partition a multi-seed batch.
    EXPECT_GT(report.batched_type_queries, 0u) << core::MdbConfigName(config);
    EXPECT_EQ(report.bidirectional_diffed, options.num_connection_pairs)
        << core::MdbConfigName(config);
  }
}

TEST(OracleTest, TypeQueriesOnMiniDblpShowNoDiffs) {
  // DBLP-shaped data: every publication root is a start of its tag, so the
  // type queries put many entry points into each partition, one monolithic
  // HOPI partition included.
  workload::DblpOptions dblp;
  dblp.num_publications = 150;
  dblp.seed = 73;
  const auto collection = workload::GenerateDblp(dblp);
  ASSERT_TRUE(collection.ok());
  for (const core::MdbConfig config :
       {core::MdbConfig::kNaive, core::MdbConfig::kMaximalPpo,
        core::MdbConfig::kUnconnectedHopi, core::MdbConfig::kHybrid}) {
    for (const size_t bound : {size_t{60}, size_t{1} << 20}) {
      const auto flix = MustBuild(*collection, Options(config, bound));
      OracleOptions options;
      options.seed = 79;
      options.num_queries = 6;
      options.num_connection_pairs = 16;
      const OracleReport report = RunDifferentialOracle(*flix, options);
      EXPECT_TRUE(report.ok()) << core::MdbConfigName(config) << " bound "
                               << bound << ": " << report.diffs.front();
      EXPECT_GT(report.type_queries_diffed, 0u);
      EXPECT_GT(report.batched_type_queries, 0u);
    }
  }
}

TEST(OracleTest, DeepModeCoversMoreQueries) {
  const auto collection = workload::GenerateSynthetic({.seed = 61});
  ASSERT_TRUE(collection.ok());
  const auto flix =
      MustBuild(*collection, Options(core::MdbConfig::kHybrid, 60));
  OracleOptions shallow;
  shallow.seed = 67;
  shallow.num_queries = 6;
  shallow.num_connection_pairs = 12;
  OracleOptions deep = shallow;
  deep.deep = true;
  const OracleReport a = RunDifferentialOracle(*flix, shallow);
  const OracleReport b = RunDifferentialOracle(*flix, deep);
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(b.ok());
  EXPECT_GT(b.queries_diffed, a.queries_diffed);
}

TEST(CheckMetricsTest, CountersRecordValidatorAndOracleWork) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const uint64_t validations_before =
      registry.GetCounter("flix.check.validations").Value();
  const uint64_t oracle_before =
      registry.GetCounter("flix.check.oracle_queries").Value();

  const auto collection = workload::GenerateSynthetic({.seed = 71});
  ASSERT_TRUE(collection.ok());
  const auto flix =
      MustBuild(*collection, Options(core::MdbConfig::kHybrid, 60));
  const CheckReport report = ValidateFramework(*flix);
  ASSERT_TRUE(report.ok());
  OracleOptions options;
  options.num_queries = 4;
  options.num_connection_pairs = 8;
  const OracleReport oracle = RunDifferentialOracle(*flix, options);
  ASSERT_TRUE(oracle.ok());

  EXPECT_EQ(registry.GetCounter("flix.check.validations").Value(),
            validations_before + report.checks_run);
  EXPECT_EQ(registry.GetCounter("flix.check.oracle_queries").Value(),
            oracle_before + oracle.queries_diffed);

  // The counters must also surface through the Flix metrics snapshot so
  // `flixctl stats` reports them.
  const obs::MetricsSnapshot snapshot = flix->MetricsSnapshot();
  EXPECT_NE(snapshot.FindCounter("flix.check.validations"), nullptr);
  EXPECT_NE(snapshot.FindCounter("flix.check.violations"), nullptr);
  EXPECT_NE(snapshot.FindCounter("flix.check.oracle_queries"), nullptr);
}

}  // namespace
}  // namespace flix::check
