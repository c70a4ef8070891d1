// Whole-file layer of the paged index format: superblock + page-aligned
// segments + trailing segment table.
//
// PagedFileWriter streams segments to disk (payloads are checksummed and
// page-padded as they are written) and patches the superblock on Finish.
// PagedFileReader mmaps a file, validates the superblock and segment table
// up front, and hands out SegmentViews; per-segment payload checksums are
// verified lazily via VerifySegment so a beyond-RAM open does not have to
// touch every page.
#ifndef FLIX_STORAGE_PAGED_FILE_H_
#define FLIX_STORAGE_PAGED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/format.h"
#include "storage/mapped_file.h"
#include "storage/segment.h"

namespace flix::storage {

class PagedFileWriter {
 public:
  // Opens `path` for writing and reserves page 0 for the superblock. The
  // caller fills identity fields of `superblock` (config, partition counts,
  // ...); layout fields (offsets, checksums) are computed here.
  static StatusOr<PagedFileWriter> Create(const std::string& path,
                                          const Superblock& superblock);

  PagedFileWriter(PagedFileWriter&&) = default;
  PagedFileWriter& operator=(PagedFileWriter&&) = default;

  // Appends one segment (page-aligned, payload checksummed).
  Status AddSegment(SegmentKind kind, uint32_t partition, uint32_t strategy,
                    std::span<const std::byte> payload);

  // Writes the segment table, patches the superblock, flushes. The file is
  // not valid until Finish succeeds.
  Status Finish();

 private:
  PagedFileWriter() = default;

  std::ofstream out_;
  Superblock superblock_;
  std::vector<SegmentEntry> entries_;
  uint64_t cursor_ = 0;  // next write offset; always page-aligned
  bool finished_ = false;
};

// Read side. Owns the mapping; Flix pins a shared_ptr to keep views alive.
class PagedFileReader {
 public:
  // Maps the file and validates superblock + segment table. When
  // `verify_checksums` is set, every segment payload checksum is verified
  // up front (the default safe mode); otherwise only the superblock and
  // table are checked and corruption surfaces via VerifySegment / parse
  // errors.
  static StatusOr<PagedFileReader> Open(const std::string& path,
                                        bool verify_checksums = true);

  PagedFileReader(PagedFileReader&&) = default;
  PagedFileReader& operator=(PagedFileReader&&) = default;

  const Superblock& superblock() const { return superblock_; }
  std::span<const SegmentEntry> segments() const { return entries_; }

  // First segment matching (kind, partition), or nullptr.
  const SegmentEntry* Find(SegmentKind kind, uint32_t partition) const;

  // Raw payload bytes of a segment (no checksum work).
  std::span<const std::byte> Payload(const SegmentEntry& entry) const;

  // Recomputes and compares the payload checksum.
  Status VerifySegment(const SegmentEntry& entry) const;

  // Parses the segment directory (after bounds/checksum policy applied at
  // Open).
  StatusOr<SegmentView> View(const SegmentEntry& entry) const;

 private:
  PagedFileReader() = default;

  MappedFile file_;
  Superblock superblock_;
  std::vector<SegmentEntry> entries_;
};

}  // namespace flix::storage

#endif  // FLIX_STORAGE_PAGED_FILE_H_
