// On-disk layout of the paged (mmap-able) index format.
//
// A paged index file is laid out as
//
//   [superblock (page 0)] [segment]* [segment table]
//
// where every segment starts on a page boundary and holds one logical unit:
// the framework-global tables, one meta document's tables, or one meta
// document's strategy payload. A segment is self-describing — a small
// header, a directory of typed flat arrays, then the 64-byte-aligned array
// payloads — so readers bounds-check every access against the directory
// instead of trusting offsets blindly.
//
// Everything is little-endian, explicitly sized and explicitly aligned; the
// superblock carries an endianness marker so a big-endian reader fails fast
// instead of misinterpreting the data. Structures here are frozen by
// kPagedVersion: layout or checksum changes bump the version, and readers
// reject every version but their own with a message that says to rebuild
// (an index is derived data; see DESIGN.md "Paged storage format").
#ifndef FLIX_STORAGE_FORMAT_H_
#define FLIX_STORAGE_FORMAT_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace flix::storage {

// "FLIXPG01" in file byte order.
inline constexpr uint64_t kPagedMagic = 0x3130475058494C46ull;
// Version 2 introduced Checksum64; version 1 (FNV-1a) is retired.
inline constexpr uint32_t kPagedVersion = 2;
// Written as 0x01020304; a byte-swapped reader sees 0x04030201.
inline constexpr uint32_t kEndianMarker = 0x01020304;
inline constexpr uint32_t kPageBytes = 4096;
// Array payloads are aligned to cache-line granularity within a segment;
// segments themselves start page-aligned, so mapped arrays are 64-byte
// aligned in memory too.
inline constexpr uint32_t kArrayAlign = 64;

// Checksum64: the one checksum of the format (superblock, segment table,
// every segment payload, the landmark segment). It guards against
// corruption, not forgery: the mutation tests flip bytes, nobody forges
// hashes. The shape is xxHash64's: 8-byte little-endian words feed four
// independent lanes, so four multiply chains run in parallel. FNV-1a, the
// version-1 checksum, does one dependent multiply per byte (~0.5 GB/s
// against ~7 GB/s for this on one core of a 4-vCPU x86-64 container, -O2)
// and was most of a paged open. Plain portable C++: no intrinsics and no
// CPU dispatch, so there is one code path.
//
// Guarantee: two inputs of the same length that differ only inside one
// aligned 8-byte word (in particular, by any single-byte flip) have
// different checksums. Every step below is a bijection of the state for a
// fixed input word and of the word for a fixed state, and each word enters
// exactly one step, so a changed word changes the state and no later step
// can merge it back:
//   - lane step  acc' = rotl(acc + w * kP2, 31) * kP1   (kP1, kP2 odd);
//   - fold       h = rotl(l0,1) + rotl(l1,7) + rotl(l2,12) + rotl(l3,18)
//     + length (each lane enters once);
//   - each leftover whole word, then the 1-7 byte tail read byte-wise into
//     one zero-padded word: h' = rotl(h ^ Round(0, w), 27) * kP1 + kP4;
//   - a final avalanche of xor-shifts and odd multiplies.
// The length enters the fold, so inputs of different lengths differ too
// (with overwhelming probability; tests/storage_test.cc checks appending
// a zero byte). Changing any constant or step changes the file bytes and
// needs a kPagedVersion bump.
namespace checksum_internal {

inline constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull;
inline constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
inline constexpr uint64_t kP3 = 0x165667B19E3779F9ull;
inline constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
inline constexpr uint64_t kP5 = 0x27D4EB2F165667C5ull;

inline uint64_t LoadWord(const unsigned char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));  // little-endian, see kEndianMarker
  return word;
}

inline uint64_t Round(uint64_t acc, uint64_t word) {
  return std::rotl(acc + word * kP2, 31) * kP1;
}

inline uint64_t Merge(uint64_t h, uint64_t word) {
  return std::rotl(h ^ Round(0, word), 27) * kP1 + kP4;
}

}  // namespace checksum_internal

inline uint64_t Checksum64(const void* data, size_t len) {
  using namespace checksum_internal;
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + len;
  uint64_t h = kP5;
  if (len >= 32) {
    uint64_t l0 = kP1 + kP2;
    uint64_t l1 = kP2;
    uint64_t l2 = 0;
    uint64_t l3 = 0 - kP1;
    for (; end - p >= 32; p += 32) {
      l0 = Round(l0, LoadWord(p));
      l1 = Round(l1, LoadWord(p + 8));
      l2 = Round(l2, LoadWord(p + 16));
      l3 = Round(l3, LoadWord(p + 24));
    }
    h = std::rotl(l0, 1) + std::rotl(l1, 7) + std::rotl(l2, 12) +
        std::rotl(l3, 18);
  }
  h += static_cast<uint64_t>(len);
  for (; end - p >= 8; p += 8) h = Merge(h, LoadWord(p));
  if (p != end) {
    uint64_t tail = 0;
    for (int shift = 0; p != end; ++p, shift += 8) {
      tail |= static_cast<uint64_t>(*p) << shift;
    }
    h = Merge(h, tail);
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

// What one segment stores.
enum class SegmentKind : uint32_t {
  // Framework-global tables (node -> meta document mapping).
  kFramework = 1,
  // One meta document's tables: local graph, global-node list, cross links.
  kPartition = 2,
  // One meta document's strategy payload; SegmentEntry::strategy names the
  // StrategyKind.
  kIndex = 3,
  // The ALT landmark distance cache (src/flix/landmarks.h). Optional and
  // advisory: a reader that finds it damaged (or absent) runs point queries
  // blind instead of failing the load, so this segment is exempt from the
  // up-front checksum sweep and self-verified by the loader.
  kLandmarks = 4,
};

// One row of the segment table.
struct SegmentEntry {
  uint32_t kind = 0;       // SegmentKind
  uint32_t partition = 0;  // meta document id; 0 for kFramework
  uint32_t strategy = 0;   // StrategyKind for kIndex segments, else 0
  uint32_t reserved = 0;
  uint64_t offset = 0;  // absolute file offset, page-aligned
  uint64_t length = 0;  // payload bytes (before page padding)
  uint64_t checksum = 0;  // Checksum64 over the payload bytes
};
static_assert(sizeof(SegmentEntry) == 40);
static_assert(std::is_trivially_copyable_v<SegmentEntry>);

// Page 0. The trailing checksum covers every preceding superblock byte;
// the segment table has its own checksum so a truncated file is detected
// before any segment is touched.
struct Superblock {
  uint64_t magic = kPagedMagic;
  uint32_t version = kPagedVersion;
  uint32_t endianness = kEndianMarker;
  uint32_t page_bytes = kPageBytes;
  uint32_t superblock_bytes = 0;  // sizeof(Superblock), rejects layout drift
  uint64_t file_bytes = 0;
  uint64_t segment_table_offset = 0;
  uint64_t segment_count = 0;
  uint64_t segment_table_checksum = 0;

  // Framework identity: enough to reconstruct FlixOptions and to verify the
  // file matches the collection it is opened against.
  uint64_t num_elements = 0;
  uint32_t num_partitions = 0;
  uint32_t config = 0;
  uint32_t iss_policy = 0;
  uint32_t element_level_partitions = 0;
  uint64_t partition_bound = 0;
  uint64_t hopi_max_nodes = 0;
  uint64_t hybrid_dense_link_threshold = 0;
  uint64_t query_cache_capacity = 0;
  uint64_t num_cross_links = 0;

  // ALT landmark cache identity, carved out of the former reserved[4]
  // (zeros in pre-landmark files, so kPagedVersion is unchanged):
  // landmark_count + 1 as configured (0 = written before landmarks existed;
  // loaders then keep the FlixOptions default), and the generation of the
  // persisted cache (0 = no kLandmarks segment was written).
  uint64_t landmark_count_plus_one = 0;
  uint64_t landmark_generation = 0;
  uint64_t reserved[2] = {0, 0};
  uint64_t checksum = 0;
};
static_assert(sizeof(Superblock) == 160);
static_assert(sizeof(Superblock) <= kPageBytes);
static_assert(std::is_trivially_copyable_v<Superblock>);

// Segment payload prefix.
struct SegmentHeader {
  uint32_t magic = kSegmentMagic;
  uint32_t array_count = 0;

  static constexpr uint32_t kSegmentMagic = 0x31474553;  // "SEG1"
};

// One directory row inside a segment: a typed flat array. `offset` is
// relative to the segment start and kArrayAlign-aligned.
struct ArrayEntry {
  uint32_t id = 0;
  uint32_t elem_bytes = 0;
  uint64_t count = 0;
  uint64_t offset = 0;
};
static_assert(sizeof(ArrayEntry) == 24);
static_assert(std::is_trivially_copyable_v<ArrayEntry>);

inline constexpr uint64_t AlignUp(uint64_t value, uint64_t align) {
  return (value + align - 1) / align * align;
}

}  // namespace flix::storage

#endif  // FLIX_STORAGE_FORMAT_H_
