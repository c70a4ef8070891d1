// Robustness: fuzz the XML parser with corrupted inputs (must return an
// error or a document, never crash or hang) and hammer a built Flix
// instance from many threads (const query API must be thread-safe).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "flix/flix.h"
#include "graph/traversal.h"
#include "storage/paged_file.h"
#include "workload/dblp_generator.h"
#include "workload/synthetic_generator.h"
#include "xml/collection.h"
#include "xml/parser.h"

namespace flix {
namespace {

TEST(ParserFuzzTest, MutatedDocumentsNeverCrash) {
  Rng rng(2026);
  workload::SyntheticOptions options;
  size_t parsed_ok = 0;
  size_t rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string text =
        workload::GenerateDocumentXml(options, "doc", 20, rng);
    // Corrupt 1-6 random bytes (overwrite, delete, or insert).
    const int mutations = 1 + static_cast<int>(rng.Uniform(6));
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const size_t pos = rng.Uniform(text.size());
      switch (rng.Uniform(3)) {
        case 0:
          text[pos] = static_cast<char>(rng.Uniform(256));
          break;
        case 1:
          text.erase(pos, 1);
          break;
        default:
          text.insert(pos, 1, static_cast<char>(rng.Uniform(128)));
      }
    }
    xml::NamePool pool;
    const StatusOr<xml::Document> result =
        xml::ParseDocument(text, "fuzz", pool);
    if (result.ok()) {
      ++parsed_ok;
      EXPECT_GT(result->NumElements(), 0u);
    } else {
      ++rejected;
      EXPECT_FALSE(result.status().message().empty());
    }
  }
  // Both outcomes must occur: mutations often break well-formedness but
  // sometimes only touch text content.
  EXPECT_GT(parsed_ok, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(ParserFuzzTest, RandomBytesNeverCrash) {
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    std::string text(rng.Uniform(200), '\0');
    for (char& c : text) c = static_cast<char>(rng.Uniform(256));
    xml::NamePool pool;
    (void)xml::ParseDocument(text, "noise", pool);  // must not crash
  }
  SUCCEED();
}

// Saves `flix` as a paged file under the test temp dir and returns its bytes.
std::string SaveIndexBytes(const core::Flix& flix, const std::string& path) {
  EXPECT_TRUE(flix.Save(path).ok());
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string FuzzTempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

TEST(PersistenceFuzzTest, CorruptedIndexFilesNeverCrash) {
  // Save a real index, then mutate bytes at random positions; Load must
  // return an error or (if the mutation is benign) a working instance —
  // never crash or hang. Positions are drawn from the bytes the file
  // actually uses (superblock, segment payloads, segment table), not the
  // page padding between segments, which no reader looks at.
  const auto collection = workload::GenerateSynthetic({.seed = 3033});
  ASSERT_TRUE(collection.ok());
  auto flix = core::Flix::Build(*collection, {});
  ASSERT_TRUE(flix.ok());
  ASSERT_NE((*flix)->meta_documents().landmarks.Snapshot(), nullptr);
  const std::string path = FuzzTempPath("fuzz_corrupt.flix");
  const std::string bytes = SaveIndexBytes(**flix, path);

  std::vector<std::pair<uint64_t, uint64_t>> live;  // [begin, end)
  {
    auto reader = storage::PagedFileReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    const storage::Superblock& sb = reader->superblock();
    live.emplace_back(0, sizeof(storage::Superblock));
    for (const storage::SegmentEntry& entry : reader->segments()) {
      live.emplace_back(entry.offset, entry.offset + entry.length);
    }
    live.emplace_back(sb.segment_table_offset,
                      sb.segment_table_offset +
                          sb.segment_count * sizeof(storage::SegmentEntry));
  }
  uint64_t live_bytes = 0;
  for (const auto& [begin, end] : live) live_bytes += end - begin;
  const auto live_position = [&](uint64_t k) {
    for (const auto& [begin, end] : live) {
      if (k < end - begin) return begin + k;
      k -= end - begin;
    }
    return uint64_t{0};
  };

  Rng rng(99);
  size_t caught = 0;
  for (int trial = 0; trial < 120; ++trial) {
    std::string mutated = bytes;
    const int mutations = 1 + static_cast<int>(rng.Uniform(4));
    for (int m = 0; m < mutations; ++m) {
      mutated[live_position(rng.Uniform(live_bytes))] =
          static_cast<char>(rng.Uniform(256));
    }
    WriteBytes(path, mutated);
    const auto loaded = core::Flix::Load(path, *collection);
    if (!loaded.ok()) {
      ++caught;
      EXPECT_FALSE(loaded.status().message().empty());
    } else {
      // A damaged landmark segment loads without its cache (point queries
      // fall back to blind search); a benign mutation (the random byte
      // equals the old one) loads intact. Either way the instance must
      // answer queries without crashing.
      if ((*loaded)->meta_documents().landmarks.Snapshot() == nullptr) {
        ++caught;
      }
      (void)(*loaded)->FindDescendantsByName(collection->GlobalId(0, 0), "t0");
    }
  }
  EXPECT_GT(caught, 50u);  // most random mutations must be caught
}

TEST(PersistenceFuzzTest, TruncatedIndexFilesNeverCrash) {
  const auto collection = workload::GenerateSynthetic({.seed = 3035});
  ASSERT_TRUE(collection.ok());
  auto flix = core::Flix::Build(*collection, {});
  ASSERT_TRUE(flix.ok());
  const std::string path = FuzzTempPath("fuzz_truncated.flix");
  const std::string bytes = SaveIndexBytes(**flix, path);

  Rng rng(101);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t cut = rng.Uniform(bytes.size());
    WriteBytes(path, bytes.substr(0, cut));
    const auto loaded = core::Flix::Load(path, *collection);
    // A strict prefix of the file can never be a complete index.
    EXPECT_FALSE(loaded.ok()) << "cut at " << cut << " of " << bytes.size();
    if (!loaded.ok()) {
      EXPECT_FALSE(loaded.status().message().empty());
    }
  }
}

TEST(PersistenceFuzzTest, CorruptedCollectionFilesNeverCrash) {
  const auto collection = workload::GenerateSynthetic({.seed = 3037});
  ASSERT_TRUE(collection.ok());
  std::stringstream original;
  ASSERT_TRUE(collection->Save(original).ok());
  const std::string bytes = original.str();

  Rng rng(103);
  for (int trial = 0; trial < 120; ++trial) {
    std::string mutated = bytes;
    for (int m = 0; m < 3; ++m) {
      mutated[rng.Uniform(mutated.size())] =
          static_cast<char>(rng.Uniform(256));
    }
    std::stringstream stream(mutated);
    (void)xml::Collection::Load(stream);  // must not crash
  }
  for (int trial = 0; trial < 60; ++trial) {
    std::stringstream stream(bytes.substr(0, rng.Uniform(bytes.size())));
    (void)xml::Collection::Load(stream);  // must not crash
  }
  SUCCEED();
}

TEST(ConcurrencyTest, ParallelQueriesAgreeWithSerialResults) {
  workload::DblpOptions options;
  options.num_publications = 300;
  const auto collection = workload::GenerateDblp(options);
  ASSERT_TRUE(collection.ok());
  core::FlixOptions fopts;
  fopts.config = core::MdbConfig::kHybrid;
  fopts.partition_bound = 2000;
  auto flix = core::Flix::Build(*collection, fopts);
  ASSERT_TRUE(flix.ok());

  // Serial reference answers.
  const graph::Digraph g = collection->BuildGraph();
  std::vector<NodeId> starts;
  for (DocId d = collection->NumDocuments(); d-- > 0 && starts.size() < 8;) {
    starts.push_back(collection->GlobalId(d, 0));
  }
  std::vector<std::vector<core::Result>> reference;
  for (const NodeId start : starts) {
    reference.push_back((*flix)->FindDescendantsByName(start, "article"));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        for (size_t i = 0; i < starts.size(); ++i) {
          const auto results =
              (*flix)->FindDescendantsByName(starts[i], "article");
          if (results != reference[i]) ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);

  // Statistics got accumulated from every thread without tearing.
  const core::QueryStats stats = (*flix)->CumulativeQueryStats();
  EXPECT_GE(stats.index_probes, 4u * 20u * starts.size());
}

TEST(ConcurrencyTest, ParallelConnectionTests) {
  const auto collection = workload::GenerateSynthetic({.seed = 2030});
  ASSERT_TRUE(collection.ok());
  auto flix = core::Flix::Build(*collection, {});
  ASSERT_TRUE(flix.ok());
  const graph::Digraph g = collection->BuildGraph();
  const graph::ReachabilityOracle oracle(g);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < 200; ++i) {
        const NodeId a = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
        const NodeId b = static_cast<NodeId>(rng.Uniform(g.NumNodes()));
        if ((*flix)->IsConnected(a, b) != oracle.IsReachable(a, b)) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace flix
