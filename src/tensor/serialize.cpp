#include "tensor/serialize.hpp"

#include <bit>
#include <cstring>
#include <limits>

namespace fedra {

namespace {
constexpr char kMagic[4] = {'F', 'M', 'A', 'T'};

// Dimension sanity caps for get_matrix. Each axis is capped BEFORE the
// product is formed, so the element-count check can never be bypassed by
// multiplication overflow (1e9 * 1e9 < 2^63).
constexpr std::uint64_t kMaxAxis = 1000000000ULL;
constexpr std::uint64_t kMaxElements = 1000000000ULL;

void check_dims(std::uint64_t rows, std::uint64_t cols) {
  if (rows > kMaxAxis || cols > kMaxAxis || rows * cols > kMaxElements) {
    throw SerializeError("matrix header implausibly large");
  }
}
}  // namespace

// --- ByteWriter -----------------------------------------------------------

void ByteWriter::put_u8(std::uint8_t v) {
  buf_.push_back(static_cast<char>(v));
}

void ByteWriter::put_u16(std::uint16_t v) {
  for (int i = 0; i < 2; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void ByteWriter::put_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void ByteWriter::put_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void ByteWriter::put_f64(double v) {
  put_u64(std::bit_cast<std::uint64_t>(v));
}

void ByteWriter::put_bytes(const void* data, std::size_t size) {
  buf_.append(static_cast<const char*>(data), size);
}

void ByteWriter::put_string(std::string_view s) {
  if (s.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw SerializeError("string too long to serialize");
  }
  put_u32(static_cast<std::uint32_t>(s.size()));
  put_bytes(s.data(), s.size());
}

void ByteWriter::put_doubles(const std::vector<double>& xs) {
  put_u64(xs.size());
  put_bytes(xs.data(), xs.size() * sizeof(double));
}

void ByteWriter::put_matrix(const Matrix& m) {
  put_bytes(kMagic, sizeof(kMagic));
  put_u64(m.rows());
  put_u64(m.cols());
  put_bytes(m.data(), m.size() * sizeof(double));
}

// --- ByteReader -----------------------------------------------------------

ByteReader::ByteReader(const void* data, std::size_t size)
    : p_(static_cast<const unsigned char*>(data)),
      end_(static_cast<const unsigned char*>(data) + size) {}

void ByteReader::require(std::size_t n) const {
  if (remaining() < n) throw SerializeError("buffer truncated");
}

std::uint8_t ByteReader::get_u8() {
  require(1);
  return *p_++;
}

std::uint16_t ByteReader::get_u16() {
  require(2);
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v = static_cast<std::uint16_t>(v | (static_cast<std::uint16_t>(p_[i])
                                        << (8 * i)));
  }
  p_ += 2;
  return v;
}

std::uint32_t ByteReader::get_u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p_[i]) << (8 * i);
  p_ += 4;
  return v;
}

std::uint64_t ByteReader::get_u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p_[i]) << (8 * i);
  p_ += 8;
  return v;
}

double ByteReader::get_f64() { return std::bit_cast<double>(get_u64()); }

bool ByteReader::get_bool() {
  const std::uint8_t v = get_u8();
  if (v > 1) throw SerializeError("malformed bool");
  return v != 0;
}

void ByteReader::get_bytes(void* out, std::size_t size) {
  require(size);
  // `out` may be null for size 0 (an empty vector's data()), which memcpy
  // forbids even for zero bytes.
  if (size > 0) std::memcpy(out, p_, size);
  p_ += size;
}

std::string ByteReader::get_string() {
  const std::uint32_t n = get_u32();
  require(n);
  std::string s(reinterpret_cast<const char*>(p_), n);
  p_ += n;
  return s;
}

std::vector<double> ByteReader::get_doubles() {
  const std::uint64_t n = get_u64();
  if (n > remaining() / sizeof(double)) {
    throw SerializeError("double array truncated");
  }
  std::vector<double> xs(static_cast<std::size_t>(n));
  get_bytes(xs.data(), xs.size() * sizeof(double));
  return xs;
}

Matrix ByteReader::get_matrix() {
  char magic[4];
  get_bytes(magic, sizeof(magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw SerializeError("bad matrix magic");
  }
  const std::uint64_t rows = get_u64();
  const std::uint64_t cols = get_u64();
  check_dims(rows, cols);
  const std::uint64_t bytes = rows * cols * sizeof(double);
  if (bytes > remaining()) throw SerializeError("matrix data truncated");
  Matrix m(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  get_bytes(m.data(), static_cast<std::size_t>(bytes));
  return m;
}

void ByteReader::expect_end() const {
  if (!at_end()) throw SerializeError("trailing bytes after payload");
}

}  // namespace fedra
