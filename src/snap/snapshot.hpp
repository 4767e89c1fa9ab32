// Versioned, checksummed binary snapshot container.
//
// A snapshot is the engine's full mid-run state, serialized so a crashed
// process can restore it and resume divergence-free.  The container layer
// here is engine-agnostic: a file is a fixed header followed by tagged,
// length-prefixed sections, each protected by its own CRC32, closed by a
// mandatory end-marker section so truncation anywhere is detectable:
//
//   header   magic u32 ("ESNP"), format-version u32
//   section  tag u32 (fourcc), payload length u64, payload bytes, CRC32 u32
//   ...
//   end      tag "SEND", payload = u64 section count (itself CRC-protected)
//
// All integers are little-endian fixed width; doubles are serialized as
// their IEEE-754 bit pattern, so a snapshot round-trips bit-exactly.  The
// reader validates the header, every section frame and every CRC up front:
// a torn, truncated or bit-flipped file fails construction with a typed
// SnapshotError before any engine state is touched.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace es::snap {

inline constexpr std::uint32_t kMagic = 0x50'4E'53'45;  // "ESNP" on disk
inline constexpr std::uint32_t kFormatVersion = 3;

/// What went wrong with a snapshot file.  CLI front-ends map kIo to their
/// I/O exit code and everything else to the corrupt-snapshot exit code.
enum class SnapshotErrorKind {
  kIo,        ///< file missing/unreadable/unwritable
  kCorrupt,   ///< bad magic, torn frame, CRC mismatch, malformed payload
  kVersion,   ///< format-version mismatch (no migration path)
  kMismatch,  ///< intact snapshot of a *different* run (workload, policy
              ///< or machine fingerprint disagrees)
};

const char* to_string(SnapshotErrorKind kind);

class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(SnapshotErrorKind kind, const std::string& message)
      : std::runtime_error(message), kind_(kind) {}
  SnapshotErrorKind kind() const { return kind_; }

 private:
  SnapshotErrorKind kind_;
};

/// CRC32 (IEEE 802.3, reflected) of a byte range.
std::uint32_t crc32(const void* data, std::size_t size);

/// Serializes sections into the container format.  Usage:
///   writer.begin_section("JOBS"); writer.u64(...); writer.end_section();
///   ...; std::string bytes = writer.finish();
class SnapshotWriter {
 public:
  void begin_section(const char (&tag)[5]);
  void end_section();

  void u8(std::uint8_t value);
  void u32(std::uint32_t value);
  void u64(std::uint64_t value);
  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }
  void i32(std::int32_t value) { u32(static_cast<std::uint32_t>(value)); }
  void f64(double value);
  void boolean(bool value) { u8(value ? 1 : 0); }
  void str(const std::string& value);

  /// Appends the end marker and returns the complete file image.  The
  /// writer is spent afterwards.
  std::string finish();

 private:
  void raw(const void* data, std::size_t size);

  std::string out_;
  std::size_t section_start_ = 0;  ///< offset of the current payload
  std::uint32_t sections_ = 0;
  bool in_section_ = false;
  bool finished_ = false;
};

/// Parses and fully validates a snapshot image, then serves typed reads
/// section by section.  Construction throws SnapshotError (kCorrupt /
/// kVersion) on any structural or checksum defect; reads throw kCorrupt
/// when a section's payload is shorter than the caller expects.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::string bytes);

  /// Positions the cursor at the start of the named section.  Throws
  /// kCorrupt if the section is absent.
  void open_section(const char (&tag)[5]);
  /// True when the named section exists.
  bool has_section(const char (&tag)[5]) const;
  /// Bytes left unread in the open section.
  std::size_t remaining() const;

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64();
  bool boolean() { return u8() != 0; }
  std::string str();

 private:
  struct Section {
    std::uint32_t tag = 0;
    std::size_t begin = 0;  ///< payload offset in bytes_
    std::size_t size = 0;
  };

  const Section* find(std::uint32_t tag) const;
  void need(std::size_t bytes) const;

  std::string bytes_;
  std::vector<Section> sections_;
  const Section* current_ = nullptr;
  std::size_t cursor_ = 0;
};

/// Writes a finished snapshot image to `path` via write_file_atomic (fsync
/// + rename + directory fsync).  Throws SnapshotError(kIo) on failure.
void write_snapshot_file(const std::string& path, const std::string& bytes);

/// Loads and validates `path`.  Throws kIo when unreadable, kCorrupt /
/// kVersion when the content fails validation.
SnapshotReader read_snapshot_file(const std::string& path);

}  // namespace es::snap
