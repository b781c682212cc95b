// Bounds-checked byte-buffer codec under the fedra::ckpt section format,
// the one on-disk format for model and training state. ByteWriter appends
// little-endian primitives to an in-memory buffer; ByteReader walks one
// and throws SerializeError on any overrun or malformed framing instead
// of reading past the end.
//
// A matrix is framed as magic "FMAT", u64 rows, u64 cols, then the raw
// doubles. Doubles are written as raw IEEE-754 bits — NaN payloads,
// signed zeros, subnormals and infinities all round-trip exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "tensor/matrix.hpp"

namespace fedra {

/// Thrown on malformed or truncated serialized input. A subtype of
/// std::runtime_error, so existing catch sites keep working.
class SerializeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends little-endian primitives to an in-memory buffer. Containers are
/// length-prefixed so ByteReader can validate before allocating.
class ByteWriter {
 public:
  void put_u8(std::uint8_t v);
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  /// Raw IEEE-754 bits — every double value round-trips exactly.
  void put_f64(double v);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_bytes(const void* data, std::size_t size);
  /// u32 length + bytes.
  void put_string(std::string_view s);
  /// u64 count + raw doubles.
  void put_doubles(const std::vector<double>& xs);
  /// u64 count + one byte per element.
  void put_bools(const std::vector<bool>& xs);
  /// "FMAT" framing (see file comment).
  void put_matrix(const Matrix& m);

  const std::string& bytes() const { return buf_; }
  std::string take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Walks a byte buffer written by ByteWriter. Every getter checks bounds
/// and throws SerializeError instead of reading past the end; length
/// prefixes are validated against the remaining bytes before any
/// allocation, so a corrupted count cannot trigger a huge allocation.
/// Non-owning: the underlying buffer must outlive the reader.
class ByteReader {
 public:
  ByteReader(const void* data, std::size_t size);
  explicit ByteReader(std::string_view bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  std::uint8_t get_u8();
  std::uint16_t get_u16();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  double get_f64();
  bool get_bool();
  void get_bytes(void* out, std::size_t size);
  std::string get_string();
  std::vector<double> get_doubles();
  std::vector<bool> get_bools();
  Matrix get_matrix();

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  bool at_end() const { return p_ == end_; }
  /// Throws SerializeError unless every byte has been consumed (trailing
  /// garbage in a fixed-layout payload means the framing is wrong).
  void expect_end() const;

 private:
  void require(std::size_t n) const;

  const unsigned char* p_;
  const unsigned char* end_;
};

}  // namespace fedra
