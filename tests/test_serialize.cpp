#include "tensor/serialize.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>

#include "util/rng.hpp"

namespace fedra {
namespace {

// --- Matrix framing: "FMAT", u64 rows, u64 cols, raw doubles -------------

TEST(Serialize, EmptyDimsRoundTrip) {
  ByteWriter w;
  w.put_matrix(Matrix(0, 0));
  ByteReader r(w.bytes());
  const Matrix back = r.get_matrix();
  EXPECT_EQ(back.rows(), 0u);
  EXPECT_EQ(back.cols(), 0u);
  EXPECT_TRUE(r.at_end());
}

TEST(Serialize, MultipleMatricesSequentially) {
  Rng rng(2);
  auto a = Matrix::random_gaussian(2, 3, rng);
  auto b = Matrix::random_gaussian(1, 1, rng);
  ByteWriter w;
  w.put_matrix(a);
  w.put_matrix(b);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_matrix(), a);
  EXPECT_EQ(r.get_matrix(), b);
  EXPECT_TRUE(r.at_end());
}

TEST(Serialize, BadMagicThrows) {
  const std::string bytes = "NOTAMATRIXHEADER.................";
  ByteReader r(bytes);
  EXPECT_THROW((void)r.get_matrix(), SerializeError);
}

// --- ByteWriter / ByteReader buffer codec ---------------------------------

TEST(ByteCodec, PrimitivesRoundTrip) {
  ByteWriter w;
  w.put_u8(0xab);
  w.put_u16(0xbeef);
  w.put_u32(0xdeadbeefu);
  w.put_u64(0x0123456789abcdefULL);
  w.put_f64(-0.125);
  w.put_bool(true);
  w.put_bool(false);
  w.put_string("hello");
  w.put_doubles({1.5, -2.5});
  w.put_bools({true, false, true});

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u16(), 0xbeef);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.get_f64(), -0.125);
  EXPECT_TRUE(r.get_bool());
  EXPECT_FALSE(r.get_bool());
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_doubles(), (std::vector<double>{1.5, -2.5}));
  EXPECT_EQ(r.get_bools(), (std::vector<bool>{true, false, true}));
  EXPECT_TRUE(r.at_end());
  EXPECT_NO_THROW(r.expect_end());
}

TEST(ByteCodec, SpecialDoublesRoundTripExactly) {
  const double subnormal = std::numeric_limits<double>::denorm_min();
  const double tiny = std::numeric_limits<double>::min() / 8.0;
  const std::vector<double> specials = {
      0.0,
      -0.0,
      subnormal,
      -subnormal,
      tiny,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::epsilon(),
  };
  ByteWriter w;
  w.put_doubles(specials);
  ByteReader r(w.bytes());
  const auto back = r.get_doubles();
  ASSERT_EQ(back.size(), specials.size());
  for (std::size_t i = 0; i < specials.size(); ++i) {
    // Bit-level comparison: NaN payloads and signed zeros must survive.
    std::uint64_t want, got;
    std::memcpy(&want, &specials[i], 8);
    std::memcpy(&got, &back[i], 8);
    EXPECT_EQ(got, want) << "value index " << i;
  }
}

TEST(ByteCodec, RandomMatrixShapesRoundTrip) {
  // Property test: arbitrary shapes — including empty axes — and payloads
  // salted with subnormals, infinities and NaNs round-trip bit-exactly.
  Rng rng(17);
  for (int trial = 0; trial < 60; ++trial) {
    const auto rows = static_cast<std::size_t>(rng.uniform_int(0, 12));
    const auto cols = static_cast<std::size_t>(rng.uniform_int(0, 12));
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); ++i) {
      switch (rng.uniform_int(0, 9)) {
        case 0: m[i] = std::numeric_limits<double>::denorm_min(); break;
        case 1: m[i] = -std::numeric_limits<double>::infinity(); break;
        case 2: m[i] = std::numeric_limits<double>::quiet_NaN(); break;
        case 3: m[i] = -0.0; break;
        default: m[i] = rng.gaussian(0.0, 1e8); break;
      }
    }
    ByteWriter w;
    w.put_matrix(m);
    ByteReader r(w.bytes());
    const Matrix back = r.get_matrix();
    EXPECT_TRUE(r.at_end());

    ASSERT_EQ(back.rows(), rows);
    ASSERT_EQ(back.cols(), cols);
    for (std::size_t i = 0; i < m.size(); ++i) {
      const double mv = m[i], bv = back[i];
      std::uint64_t want, got;
      std::memcpy(&want, &mv, 8);
      std::memcpy(&got, &bv, 8);
      EXPECT_EQ(got, want);
    }
  }
}

TEST(ByteCodec, TruncationAlwaysThrowsNeverCrashes) {
  Rng rng(19);
  ByteWriter w;
  w.put_matrix(Matrix::random_gaussian(5, 3, rng));
  w.put_string("tail");
  const std::string& bytes = w.bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ByteReader r(bytes.data(), len);
    EXPECT_THROW(
        {
          (void)r.get_matrix();
          (void)r.get_string();
        },
        SerializeError)
        << "no throw at truncation length " << len;
  }
}

TEST(ByteCodec, RandomBitFlipsThrowOrReturnNeverCrash) {
  // Bit-flip fuzz over the framed encoding: any flip must either produce
  // a SerializeError (bad magic / implausible dims / short payload) or
  // decode to SOME matrix (flips inside the raw doubles are undetectable
  // at this layer — the ckpt container's CRCs catch those). The pinned
  // property is the absence of UB, OOB reads and unbounded allocation.
  Rng rng(23);
  ByteWriter w;
  w.put_matrix(Matrix::random_gaussian(4, 4, rng));
  const std::string bytes = w.bytes();
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      try {
        ByteReader r(flipped);
        (void)r.get_matrix();
      } catch (const SerializeError&) {
        // fine: detected
      }
    }
  }
}

TEST(ByteCodec, LengthPrefixCannotDriveHugeAllocation) {
  // A corrupted element count must be rejected by comparison against the
  // remaining payload BEFORE any allocation happens.
  ByteWriter w;
  w.put_u64(~0ULL);  // doubles count claiming 2^64-1 elements
  w.put_f64(1.0);
  ByteReader r(w.bytes());
  EXPECT_THROW((void)r.get_doubles(), SerializeError);

  ByteWriter w2;
  w2.put_u32(0xffffffffu);  // string length prefix
  w2.put_u8('x');
  ByteReader r2(w2.bytes());
  EXPECT_THROW((void)r2.get_string(), SerializeError);
}

TEST(ByteCodec, BoolRejectsNonCanonicalBytes) {
  ByteWriter w;
  w.put_u8(2);
  ByteReader r(w.bytes());
  EXPECT_THROW((void)r.get_bool(), SerializeError);
}

}  // namespace
}  // namespace fedra
