// Minimal binary (de)serialization over iostreams, used to persist
// collections to disk (xml::Collection::Save/Load; indexes use the paged
// format in src/storage/). Little-endian, no alignment, explicit sizes.
//
// Writers never fail at this level (stream state is checked by the caller
// via stream.good()); readers track a sticky failure flag that the caller
// checks once at the end — mirroring how a failed stream behaves.
#ifndef FLIX_COMMON_BINARY_IO_H_
#define FLIX_COMMON_BINARY_IO_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>

namespace flix {

class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& out) : out_(out) {}

  template <typename T>
  void WritePod(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    out_.write(reinterpret_cast<const char*>(&value), sizeof(T));
  }

  void WriteU32(uint32_t v) { WritePod(v); }
  void WriteU64(uint64_t v) { WritePod(v); }

  void WriteString(const std::string& s) {
    WriteU64(s.size());
    out_.write(s.data(), static_cast<std::streamsize>(s.size()));
  }

  bool ok() const { return out_.good(); }

 private:
  std::ostream& out_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::istream& in) : in_(in) {
    // Capture the stream length (when seekable) so corrupted size headers
    // are rejected before allocating: a string can never hold more bytes
    // than the stream has left.
    const std::istream::pos_type current = in_.tellg();
    if (current != std::istream::pos_type(-1)) {
      in_.seekg(0, std::ios::end);
      const std::istream::pos_type end = in_.tellg();
      in_.seekg(current);
      if (end != std::istream::pos_type(-1) && end >= current) {
        stream_bytes_ = static_cast<uint64_t>(end - current);
      }
    }
  }

  template <typename T>
  T ReadPod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value{};
    in_.read(reinterpret_cast<char*>(&value), sizeof(T));
    if (!in_.good()) failed_ = true;
    return value;
  }

  uint32_t ReadU32() { return ReadPod<uint32_t>(); }
  uint64_t ReadU64() { return ReadPod<uint64_t>(); }

  std::string ReadString() {
    const uint64_t size = ReadU64();
    if (failed_ || size > MaxBytesLeft()) {
      failed_ = true;
      return {};
    }
    std::string s(size, '\0');
    in_.read(s.data(), static_cast<std::streamsize>(size));
    if (!in_.good()) {
      failed_ = true;
      return {};
    }
    return s;
  }

  bool ok() const { return !failed_ && in_.good(); }
  bool failed() const { return failed_; }

  // Lets composite loaders flag semantic corruption (e.g. an out-of-range
  // id) so the caller's final ok() check catches it.
  void MarkFailed() { failed_ = true; }

 private:
  // Fallback cap for non-seekable streams: truncated/corrupt inputs must
  // not trigger multi-gigabyte allocations.
  static constexpr uint64_t kMaxAllocation = uint64_t{1} << 34;  // 16 GiB

  // Upper bound for one allocation: the remaining stream bytes when the
  // stream is seekable, the static cap otherwise.
  uint64_t MaxBytesLeft() const {
    return stream_bytes_ != 0 ? stream_bytes_ : kMaxAllocation;
  }

  std::istream& in_;
  uint64_t stream_bytes_ = 0;
  bool failed_ = false;
};

}  // namespace flix

#endif  // FLIX_COMMON_BINARY_IO_H_
