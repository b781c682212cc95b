// fedra::ckpt — versioned, integrity-checked checkpoint container.
//
// A checkpoint file is a flat bag of named binary sections:
//
//   offset 0: magic "FCKP"
//             u32  format version (kFormatVersion)
//             u32  section count
//             u64  total file size in bytes
//             per section, in order:
//               u16 name length | name bytes
//               u64 payload offset (from file start)
//               u64 payload size
//               u32 CRC-32 of the payload
//             u32  CRC-32 of every header byte above
//   payloads, back to back, in table order
//
// All integers are little-endian. Integrity is layered: the recorded file
// size catches truncation, the header CRC catches table corruption, and
// per-section CRCs catch payload corruption — every failure mode maps to
// a typed CkptError (never UB, never a crash). Writes are atomic: the
// file is assembled in memory, written to `path + ".tmp"`, then renamed
// over the destination, so a crash mid-save can never leave a torn
// checkpoint at the target path.
//
// Compatibility policy: the format version is bumped on ANY layout change
// and readers reject versions they were not built for (kBadVersion) —
// checkpoints are exact-state snapshots, so cross-version migration is
// explicitly out of scope.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "tensor/serialize.hpp"

namespace fedra::ckpt {

inline constexpr char kMagic[4] = {'F', 'C', 'K', 'P'};
inline constexpr std::uint32_t kFormatVersion = 2;

/// What went wrong with a checkpoint operation.
enum class Errc {
  kIo = 1,          ///< file cannot be opened / written / renamed
  kBadMagic,        ///< not a fedra checkpoint file
  kBadVersion,      ///< written by an incompatible format version
  kTruncated,       ///< file shorter than its header claims
  kCrcMismatch,     ///< header or section payload fails its CRC
  kMissingSection,  ///< a required section is absent
  kMalformed,       ///< section table or payload framing is inconsistent
  kStateMismatch,   ///< payload shape does not match the restore target
};

/// Stable name for an error code (used in messages and by ckpt_inspect).
const char* errc_name(Errc code);

/// The one exception type of the subsystem. Subtype of runtime_error, so
/// generic catch sites keep working; code() lets callers branch.
class CkptError : public std::runtime_error {
 public:
  CkptError(Errc code, const std::string& what);
  Errc code() const { return code_; }

 private:
  Errc code_;
};

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, the zlib convention).
/// Pass a previous result as `seed` to checksum incrementally.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

/// One row of the section table.
struct SectionInfo {
  std::string name;
  std::uint64_t offset = 0;  ///< payload start, from file offset 0
  std::uint64_t size = 0;    ///< payload bytes
  std::uint32_t crc = 0;     ///< CRC-32 of the payload
};

/// Accumulates named sections in memory, then writes the whole file
/// atomically. Section names must be unique, non-empty, and at most 255
/// bytes.
class Writer {
 public:
  /// Starts a new section; returns the ByteWriter its payload goes into.
  /// The reference stays valid until the next add() call.
  ByteWriter& add(std::string name);

  std::size_t num_sections() const { return sections_.size(); }

  /// Serializes the full container (header + table + payloads).
  std::string encode() const;

  /// encode() to `path + ".tmp"`, then rename over `path`. Throws
  /// CkptError(kIo) on any filesystem failure (the temp file is removed).
  void write_file(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, ByteWriter>> sections_;
};

/// Parses and validates a checkpoint container. ALL validation happens at
/// construction — magic, version, recorded size, header CRC, table bounds,
/// and every section CRC — so a Reader that exists is internally
/// consistent and open() cannot fail for integrity reasons.
class Reader {
 public:
  static Reader from_bytes(std::string bytes);
  static Reader from_file(const std::string& path);

  std::uint32_t version() const { return version_; }
  const std::vector<SectionInfo>& sections() const { return sections_; }

  bool has(std::string_view name) const;

  /// ByteReader over the named payload; throws CkptError(kMissingSection)
  /// when absent. The reader borrows this Reader's buffer, so opening a
  /// temporary Reader would dangle — deleted for rvalues.
  ByteReader open(std::string_view name) const&;
  ByteReader open(std::string_view name) const&& = delete;

 private:
  Reader() = default;

  std::string bytes_;
  std::vector<SectionInfo> sections_;
  std::uint32_t version_ = 0;
};

}  // namespace fedra::ckpt
