// Persistence of the Flix facade in the paged FLIXPG01 format (see
// storage/format.h for the file layout and DESIGN.md "Paged storage format"
// for the rationale).
//
// Layout produced by SavePaged:
//   superblock            framework identity (options, element/partition
//                         counts) — everything Load needs before segments
//   kFramework segment    meta_of_node / local_of_node
//   per meta document:
//     kPartition segment  global_nodes, cross-link tables, local graph
//     kIndex segment      the strategy payload (kind in the table entry)
//   segment table
//
// Load mmaps the file and binds every container as a view into the
// mapping: no per-node copies, so time-to-first-result is governed by page
// faults on the arrays a query actually touches, not by file size. Semantic
// validation is intentionally skipped here — the segment checksums prove the
// bytes are exactly what the writer produced, and `flixctl check --deep`
// covers writer bugs.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "flix/flix.h"
#include "flix/landmarks.h"
#include "index/path_index.h"
#include "storage/paged_file.h"
#include "storage/segment.h"

namespace flix::core {
namespace {

// Framework segment (SegmentKind::kFramework, partition 0).
constexpr uint32_t kMetaOfNodeArray = 1;
constexpr uint32_t kLocalOfNodeArray = 2;

// Partition segment (SegmentKind::kPartition, one per meta document).
constexpr uint32_t kGlobalNodesArray = 1;
constexpr uint32_t kLinkSourcesArray = 2;
constexpr uint32_t kEntryNodesArray = 3;
constexpr uint32_t kLinkTargetKeys = 4;
constexpr uint32_t kLinkTargetOffsets = 5;
constexpr uint32_t kLinkTargetFlat = 6;
constexpr uint32_t kEntryOriginKeys = 7;
constexpr uint32_t kEntryOriginOffsets = 8;
constexpr uint32_t kEntryOriginFlat = 9;
// The local graph's arrays occupy ids 10..15 (Digraph::AppendArrays).
constexpr uint32_t kGraphBase = 10;

void AppendMultiMap(storage::SegmentWriter& seg,
                    const storage::FlatMultiMap& map, uint32_t keys_id,
                    uint32_t offsets_id, uint32_t flat_id) {
  std::vector<NodeId> keys;
  std::vector<uint64_t> offsets;
  std::vector<NodeId> flat;
  map.Flatten(keys, offsets, flat);
  seg.Add(keys_id, keys);
  seg.Add(offsets_id, offsets);
  seg.Add(flat_id, flat);
}

StatusOr<storage::FlatMultiMap> MultiMapFromSegment(
    const storage::SegmentView& view, uint32_t keys_id, uint32_t offsets_id,
    uint32_t flat_id) {
  const auto keys = view.GetArray<NodeId>(keys_id);
  if (!keys.ok()) return keys.status();
  const auto offsets = view.GetArray<uint64_t>(offsets_id);
  if (!offsets.ok()) return offsets.status();
  const auto flat = view.GetArray<NodeId>(flat_id);
  if (!flat.ok()) return flat.status();
  return storage::FlatMultiMap::FromView(keys.value(), offsets.value(),
                                         flat.value());
}

// Replaces `path` with the freshly written `tmp`. The rename keeps the old
// inode alive for any live mapping of the previous file (a paged instance
// re-saving over its own backing file must not truncate what it still
// serves queries from) and makes the save all-or-nothing.
Status CommitTempFile(const std::string& tmp, const std::string& path) {
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return InternalError("cannot move temporary index file into " + path);
  }
  return Status::Ok();
}

}  // namespace

Status Flix::Save(const std::string& path, IndexFormat /*format*/) const {
  const std::string tmp = path + ".tmp";
  const Status status = SavePaged(tmp);
  if (!status.ok()) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return status;
  }
  return CommitTempFile(tmp, path);
}

Status Flix::SavePaged(const std::string& path) const {
  storage::Superblock sb;
  sb.num_elements = collection_.NumElements();
  sb.num_partitions = static_cast<uint32_t>(set_.docs.size());
  sb.config = static_cast<uint32_t>(options_.config);
  sb.iss_policy = static_cast<uint32_t>(options_.iss_policy);
  sb.element_level_partitions = options_.element_level_partitions ? 1 : 0;
  sb.partition_bound = options_.partition_bound;
  sb.hopi_max_nodes = options_.hopi_max_nodes;
  sb.hybrid_dense_link_threshold = options_.hybrid_dense_link_threshold;
  sb.query_cache_capacity = options_.query_cache_capacity;
  sb.num_cross_links = set_.num_cross_links;
  // Snapshot (not Acquire): a cache disabled at run time still persists.
  const std::shared_ptr<const LandmarkCache> landmarks =
      set_.landmarks.Snapshot();
  const bool has_landmarks = landmarks != nullptr && !landmarks->empty();
  sb.landmark_count_plus_one = options_.landmark_count + 1;
  sb.landmark_generation = has_landmarks ? landmarks->generation() : 0;

  StatusOr<storage::PagedFileWriter> writer =
      storage::PagedFileWriter::Create(path, sb);
  if (!writer.ok()) return writer.status();

  {
    storage::SegmentWriter seg;
    seg.Add(kMetaOfNodeArray, set_.meta_of_node.span());
    seg.Add(kLocalOfNodeArray, set_.local_of_node.span());
    const std::vector<std::byte> payload = seg.Finish();
    const Status status = writer->AddSegment(storage::SegmentKind::kFramework,
                                             /*partition=*/0, /*strategy=*/0,
                                             payload);
    if (!status.ok()) return status;
  }

  for (const MetaDocument& meta : set_.docs) {
    {
      storage::SegmentWriter seg;
      seg.Add(kGlobalNodesArray, meta.global_nodes.span());
      seg.Add(kLinkSourcesArray, meta.link_sources.span());
      seg.Add(kEntryNodesArray, meta.entry_nodes.span());
      AppendMultiMap(seg, meta.link_targets, kLinkTargetKeys,
                     kLinkTargetOffsets, kLinkTargetFlat);
      AppendMultiMap(seg, meta.entry_origins, kEntryOriginKeys,
                     kEntryOriginOffsets, kEntryOriginFlat);
      meta.graph.AppendArrays(seg, kGraphBase);
      const std::vector<std::byte> payload = seg.Finish();
      const Status status = writer->AddSegment(
          storage::SegmentKind::kPartition, meta.id, /*strategy=*/0, payload);
      if (!status.ok()) return status;
    }
    {
      // Snapshot so a concurrent migration cannot free the index mid-write.
      const std::shared_ptr<index::PathIndex> index = meta.index.Acquire();
      if (index == nullptr) {
        return FailedPreconditionError("meta document " +
                                       std::to_string(meta.id) +
                                       " has no index to save");
      }
      storage::SegmentWriter seg;
      index::SaveIndexSegment(*index, seg);
      const std::vector<std::byte> payload = seg.Finish();
      const Status status = writer->AddSegment(
          storage::SegmentKind::kIndex, meta.id,
          static_cast<uint32_t>(index->kind()), payload);
      if (!status.ok()) return status;
    }
  }

  if (has_landmarks) {
    storage::SegmentWriter seg;
    landmarks->AppendArrays(seg);
    const std::vector<std::byte> payload = seg.Finish();
    const Status status =
        writer->AddSegment(storage::SegmentKind::kLandmarks, /*partition=*/0,
                           /*strategy=*/0, payload);
    if (!status.ok()) return status;
  }
  return writer->Finish();
}

StatusOr<std::unique_ptr<Flix>> Flix::Load(const std::string& path,
                                           const xml::Collection& collection,
                                           const LoadOptions& load_options) {
  Stopwatch watch;
  StatusOr<storage::PagedFileReader> opened =
      storage::PagedFileReader::Open(path, load_options.verify_checksums);
  if (!opened.ok()) return opened.status();
  auto mapping =
      std::make_shared<storage::PagedFileReader>(std::move(opened).value());
  const storage::Superblock& sb = mapping->superblock();

  if (sb.num_elements != collection.NumElements()) {
    return InvalidArgumentError(
        "index was built for a different collection (element count "
        "mismatch)");
  }

  FlixOptions options;
  options.config = static_cast<MdbConfig>(sb.config);
  options.iss_policy = static_cast<IssPolicy>(sb.iss_policy);
  options.partition_bound = sb.partition_bound;
  options.hopi_max_nodes = sb.hopi_max_nodes;
  options.hybrid_dense_link_threshold = sb.hybrid_dense_link_threshold;
  options.element_level_partitions = sb.element_level_partitions != 0;
  options.query_cache_capacity = sb.query_cache_capacity;
  // 0 = written before the landmark field existed; keep the default then.
  if (sb.landmark_count_plus_one > 0) {
    options.landmark_count = sb.landmark_count_plus_one - 1;
  }

  auto flix = std::unique_ptr<Flix>(new Flix(collection, options));
  flix->mapping_ = mapping;
  MetaDocumentSet& set = flix->set_;
  set.num_cross_links = sb.num_cross_links;

  {
    const storage::SegmentEntry* entry =
        mapping->Find(storage::SegmentKind::kFramework, 0);
    if (entry == nullptr) {
      return InvalidArgumentError("paged index: missing framework segment");
    }
    StatusOr<storage::SegmentView> view = mapping->View(*entry);
    if (!view.ok()) return view.status();
    const auto meta_of = view->GetArray<uint32_t>(kMetaOfNodeArray);
    if (!meta_of.ok()) return meta_of.status();
    const auto local_of = view->GetArray<NodeId>(kLocalOfNodeArray);
    if (!local_of.ok()) return local_of.status();
    if (meta_of.value().size() != sb.num_elements ||
        local_of.value().size() != sb.num_elements) {
      return InvalidArgumentError(
          "paged index: node-mapping size does not match the element count");
    }
    set.meta_of_node = storage::FlatVec<uint32_t>::FromView(meta_of.value());
    set.local_of_node = storage::FlatVec<NodeId>::FromView(local_of.value());
  }

  // Fill the docs vector in place: indexes loaded below keep references
  // into their meta document's graph, which must not move afterwards.
  set.docs.resize(sb.num_partitions);
  for (uint32_t m = 0; m < sb.num_partitions; ++m) {
    MetaDocument& meta = set.docs[m];
    meta.id = m;

    const storage::SegmentEntry* entry =
        mapping->Find(storage::SegmentKind::kPartition, m);
    if (entry == nullptr) {
      return InvalidArgumentError("paged index: missing partition segment " +
                                  std::to_string(m));
    }
    StatusOr<storage::SegmentView> view = mapping->View(*entry);
    if (!view.ok()) return view.status();

    const auto global_nodes = view->GetArray<NodeId>(kGlobalNodesArray);
    if (!global_nodes.ok()) return global_nodes.status();
    meta.global_nodes = storage::FlatVec<NodeId>::FromView(global_nodes.value());
    const auto link_sources = view->GetArray<NodeId>(kLinkSourcesArray);
    if (!link_sources.ok()) return link_sources.status();
    meta.link_sources = storage::FlatVec<NodeId>::FromView(link_sources.value());
    const auto entry_nodes = view->GetArray<NodeId>(kEntryNodesArray);
    if (!entry_nodes.ok()) return entry_nodes.status();
    meta.entry_nodes = storage::FlatVec<NodeId>::FromView(entry_nodes.value());

    StatusOr<storage::FlatMultiMap> link_targets = MultiMapFromSegment(
        *view, kLinkTargetKeys, kLinkTargetOffsets, kLinkTargetFlat);
    if (!link_targets.ok()) return link_targets.status();
    meta.link_targets = std::move(link_targets).value();
    StatusOr<storage::FlatMultiMap> entry_origins = MultiMapFromSegment(
        *view, kEntryOriginKeys, kEntryOriginOffsets, kEntryOriginFlat);
    if (!entry_origins.ok()) return entry_origins.status();
    meta.entry_origins = std::move(entry_origins).value();

    StatusOr<graph::Digraph> graph =
        graph::Digraph::FromSegment(*view, kGraphBase);
    if (!graph.ok()) return graph.status();
    meta.graph = std::move(graph).value();
    if (meta.graph.NumNodes() != meta.global_nodes.size()) {
      return InvalidArgumentError("paged index: partition " +
                                  std::to_string(m) +
                                  " graph/global-node size mismatch");
    }

    const storage::SegmentEntry* index_entry =
        mapping->Find(storage::SegmentKind::kIndex, m);
    if (index_entry == nullptr) {
      return InvalidArgumentError("paged index: missing index segment " +
                                  std::to_string(m));
    }
    StatusOr<storage::SegmentView> index_view = mapping->View(*index_entry);
    if (!index_view.ok()) return index_view.status();
    StatusOr<std::unique_ptr<index::PathIndex>> loaded =
        index::LoadIndexSegment(
            *index_view, static_cast<index::StrategyKind>(index_entry->strategy),
            meta.graph);
    if (!loaded.ok()) return loaded.status();
    meta.index = std::move(loaded).value();
    meta.index->RegisterLinkSources(meta.link_sources.span());
    meta.index->RegisterEntryNodes(meta.entry_nodes.span());
  }

  // Landmark segment (optional, advisory). Open skipped it in the up-front
  // checksum sweep, so verify here; any damage — bad checksum, malformed
  // directory, wrong shape — downgrades to blind point queries with a
  // warning rather than failing the load.
  if (const storage::SegmentEntry* landmark_entry =
          mapping->Find(storage::SegmentKind::kLandmarks, 0);
      landmark_entry != nullptr) {
    StatusOr<LandmarkCache> cache = [&]() -> StatusOr<LandmarkCache> {
      if (Status verified = mapping->VerifySegment(*landmark_entry);
          !verified.ok()) {
        return verified;
      }
      StatusOr<storage::SegmentView> view = mapping->View(*landmark_entry);
      if (!view.ok()) return view.status();
      return LandmarkCache::FromSegment(*view, sb.num_elements);
    }();
    if (cache.ok()) {
      set.landmarks.Replace(
          std::make_shared<const LandmarkCache>(std::move(cache).value()));
    } else {
      std::fprintf(stderr,
                   "flix: ignoring damaged landmark segment (%s); point "
                   "queries fall back to blind search\n",
                   cache.status().ToString().c_str());
    }
  }

  flix->FinishLoadedInstance(watch.ElapsedNanos());
  return flix;
}

}  // namespace flix::core
