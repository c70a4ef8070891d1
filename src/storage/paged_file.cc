#include "storage/paged_file.h"

#include <cstring>
#include <utility>

namespace flix::storage {
namespace {

Status WritePadding(std::ofstream& out, uint64_t bytes) {
  static constexpr char kZeros[kPageBytes] = {};
  while (bytes > 0) {
    const uint64_t chunk = bytes < sizeof(kZeros) ? bytes : sizeof(kZeros);
    out.write(kZeros, static_cast<std::streamsize>(chunk));
    bytes -= chunk;
  }
  if (!out.good()) return InternalError("paged writer: write failed");
  return Status::Ok();
}

}  // namespace

StatusOr<PagedFileWriter> PagedFileWriter::Create(
    const std::string& path, const Superblock& superblock) {
  PagedFileWriter writer;
  writer.out_.open(path, std::ios::binary | std::ios::trunc);
  if (!writer.out_.is_open()) {
    return InternalError("paged writer: cannot open " + path);
  }
  writer.superblock_ = superblock;
  writer.superblock_.magic = kPagedMagic;
  writer.superblock_.version = kPagedVersion;
  writer.superblock_.endianness = kEndianMarker;
  writer.superblock_.page_bytes = kPageBytes;
  writer.superblock_.superblock_bytes = sizeof(Superblock);
  // Page 0 is reserved; the real superblock is patched in by Finish.
  Status padded = WritePadding(writer.out_, kPageBytes);
  if (!padded.ok()) return padded;
  writer.cursor_ = kPageBytes;
  return writer;
}

Status PagedFileWriter::AddSegment(SegmentKind kind, uint32_t partition,
                                   uint32_t strategy,
                                   std::span<const std::byte> payload) {
  if (finished_) {
    return FailedPreconditionError("paged writer: AddSegment after Finish");
  }
  SegmentEntry entry;
  entry.kind = static_cast<uint32_t>(kind);
  entry.partition = partition;
  entry.strategy = strategy;
  entry.offset = cursor_;
  entry.length = payload.size();
  entry.checksum = Checksum64(payload.data(), payload.size());
  entries_.push_back(entry);

  out_.write(reinterpret_cast<const char*>(payload.data()),
             static_cast<std::streamsize>(payload.size()));
  if (!out_.good()) return InternalError("paged writer: write failed");
  const uint64_t padded = AlignUp(cursor_ + payload.size(), kPageBytes);
  Status status = WritePadding(out_, padded - (cursor_ + payload.size()));
  if (!status.ok()) return status;
  cursor_ = padded;
  return Status::Ok();
}

Status PagedFileWriter::Finish() {
  if (finished_) {
    return FailedPreconditionError("paged writer: double Finish");
  }
  finished_ = true;

  superblock_.segment_table_offset = cursor_;
  superblock_.segment_count = entries_.size();
  superblock_.segment_table_checksum =
      Checksum64(entries_.data(), entries_.size() * sizeof(SegmentEntry));
  superblock_.file_bytes =
      cursor_ + entries_.size() * sizeof(SegmentEntry);

  out_.write(reinterpret_cast<const char*>(entries_.data()),
             static_cast<std::streamsize>(entries_.size() *
                                          sizeof(SegmentEntry)));
  if (!out_.good()) return InternalError("paged writer: table write failed");

  superblock_.checksum =
      Checksum64(&superblock_, offsetof(Superblock, checksum));
  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(&superblock_), sizeof(superblock_));
  out_.flush();
  if (!out_.good()) return InternalError("paged writer: superblock write failed");
  out_.close();
  return Status::Ok();
}

StatusOr<PagedFileReader> PagedFileReader::Open(const std::string& path,
                                                bool verify_checksums) {
  StatusOr<MappedFile> mapped = MappedFile::Open(path);
  if (!mapped.ok()) return mapped.status();

  PagedFileReader reader;
  reader.file_ = std::move(mapped).value();
  const std::span<const std::byte> bytes = reader.file_.bytes();
  // Magic first, so any foreign or pre-FLIXPG01 file — however short — gets
  // the message that names the fix.
  uint64_t magic = 0;
  if (bytes.size() >= sizeof(magic)) {
    std::memcpy(&magic, bytes.data(), sizeof(magic));
  }
  if (magic != kPagedMagic) {
    return InvalidArgumentError(
        "not a FLIXPG01 index; stream-format files are no longer read, "
        "rebuild with `flixctl build`");
  }
  if (bytes.size() < sizeof(Superblock)) {
    return InvalidArgumentError("paged index: file shorter than superblock");
  }
  std::memcpy(&reader.superblock_, bytes.data(), sizeof(Superblock));
  const Superblock& sb = reader.superblock_;
  if (sb.endianness != kEndianMarker) {
    return InvalidArgumentError("paged index: endianness mismatch");
  }
  if (sb.version != kPagedVersion) {
    // Checked before the superblock checksum: a retired version's
    // checksums use a retired function, so they cannot be verified here.
    return InvalidArgumentError(
        "paged index: unsupported version " + std::to_string(sb.version) +
        " (this build reads version " + std::to_string(kPagedVersion) +
        "); rebuild with `flixctl build`");
  }
  if (sb.page_bytes != kPageBytes ||
      sb.superblock_bytes != sizeof(Superblock)) {
    return InvalidArgumentError("paged index: layout mismatch");
  }
  const uint64_t expect =
      Checksum64(&reader.superblock_, offsetof(Superblock, checksum));
  if (sb.checksum != expect) {
    return InvalidArgumentError("paged index: superblock checksum mismatch");
  }
  if (sb.file_bytes != bytes.size()) {
    return InvalidArgumentError("paged index: truncated file (expected " +
                                std::to_string(sb.file_bytes) + " bytes, got " +
                                std::to_string(bytes.size()) + ")");
  }

  const uint64_t table_bytes = sb.segment_count * sizeof(SegmentEntry);
  if (sb.segment_table_offset > bytes.size() ||
      table_bytes > bytes.size() - sb.segment_table_offset) {
    return InvalidArgumentError("paged index: segment table out of bounds");
  }
  reader.entries_.resize(sb.segment_count);
  if (table_bytes > 0) {
    std::memcpy(reader.entries_.data(),
                bytes.data() + sb.segment_table_offset, table_bytes);
  }
  if (Checksum64(reader.entries_.data(), table_bytes) !=
      sb.segment_table_checksum) {
    return InvalidArgumentError("paged index: segment table checksum mismatch");
  }
  for (const SegmentEntry& entry : reader.entries_) {
    if (entry.offset % kPageBytes != 0) {
      return InvalidArgumentError("paged index: segment not page-aligned");
    }
    if (entry.offset > bytes.size() ||
        entry.length > bytes.size() - entry.offset) {
      return InvalidArgumentError("paged index: segment out of bounds");
    }
    // Landmark segments are advisory: the loader verifies them itself and
    // falls back to blind search on damage, so corruption there must not
    // fail the whole open (see SegmentKind::kLandmarks).
    if (verify_checksums &&
        entry.kind != static_cast<uint32_t>(SegmentKind::kLandmarks)) {
      Status verified = reader.VerifySegment(entry);
      if (!verified.ok()) return verified;
    }
  }
  return reader;
}

const SegmentEntry* PagedFileReader::Find(SegmentKind kind,
                                          uint32_t partition) const {
  for (const SegmentEntry& entry : entries_) {
    if (entry.kind == static_cast<uint32_t>(kind) &&
        entry.partition == partition) {
      return &entry;
    }
  }
  return nullptr;
}

std::span<const std::byte> PagedFileReader::Payload(
    const SegmentEntry& entry) const {
  return file_.bytes().subspan(entry.offset, entry.length);
}

Status PagedFileReader::VerifySegment(const SegmentEntry& entry) const {
  const std::span<const std::byte> payload = Payload(entry);
  if (Checksum64(payload.data(), payload.size()) != entry.checksum) {
    return InvalidArgumentError(
        "paged index: segment checksum mismatch (kind=" +
        std::to_string(entry.kind) + " partition=" +
        std::to_string(entry.partition) + ")");
  }
  return Status::Ok();
}

StatusOr<SegmentView> PagedFileReader::View(const SegmentEntry& entry) const {
  return SegmentView::Parse(Payload(entry));
}

}  // namespace flix::storage
