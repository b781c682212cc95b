#include "ckpt/format.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "util/rng.hpp"

namespace fedra::ckpt {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + name) {}
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string small_container() {
  Writer w;
  ByteWriter& a = w.add("alpha");
  a.put_u64(123);
  a.put_f64(4.5);
  ByteWriter& b = w.add("beta");
  b.put_string("payload");
  w.add("empty");
  return w.encode();
}

TEST(Crc32, KnownAnswer) {
  // The canonical CRC-32/IEEE check value.
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, 9), 0xcbf43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  Rng rng(1);
  std::string data(257, '\0');
  for (char& c : data) c = static_cast<char>(rng.next_u64() & 0xff);
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{100},
                            data.size()}) {
    const std::uint32_t first = crc32(data.data(), split);
    const std::uint32_t whole =
        crc32(data.data() + split, data.size() - split, first);
    EXPECT_EQ(whole, crc32(data.data(), data.size()));
  }
}

TEST(CkptFormat, RoundTripSections) {
  Reader r = Reader::from_bytes(small_container());
  EXPECT_EQ(r.version(), kFormatVersion);
  ASSERT_EQ(r.sections().size(), 3u);
  EXPECT_EQ(r.sections()[0].name, "alpha");
  EXPECT_EQ(r.sections()[1].name, "beta");
  EXPECT_EQ(r.sections()[2].name, "empty");
  EXPECT_TRUE(r.has("beta"));
  EXPECT_FALSE(r.has("gamma"));

  ByteReader a = r.open("alpha");
  EXPECT_EQ(a.get_u64(), 123u);
  EXPECT_DOUBLE_EQ(a.get_f64(), 4.5);
  a.expect_end();

  ByteReader b = r.open("beta");
  EXPECT_EQ(b.get_string(), "payload");
  b.expect_end();

  ByteReader e = r.open("empty");
  EXPECT_TRUE(e.at_end());
}

TEST(CkptFormat, EmptyContainerRoundTrips) {
  Writer w;
  Reader r = Reader::from_bytes(w.encode());
  EXPECT_TRUE(r.sections().empty());
}

TEST(CkptFormat, MissingSectionIsTyped) {
  Reader r = Reader::from_bytes(small_container());
  try {
    r.open("gamma");
    FAIL() << "open() of a missing section must throw";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.code(), Errc::kMissingSection);
  }
}

TEST(CkptFormat, WriterRejectsBadNames) {
  Writer w;
  w.add("ok");
  EXPECT_THROW(w.add("ok"), CkptError);      // duplicate
  EXPECT_THROW(w.add(""), CkptError);        // empty
  EXPECT_THROW(w.add(std::string(256, 'x')), CkptError);  // too long
}

TEST(CkptFormat, BadMagicIsTyped) {
  std::string bytes = small_container();
  bytes[0] = 'X';
  try {
    Reader::from_bytes(bytes);
    FAIL() << "bad magic must throw";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.code(), Errc::kBadMagic);
  }
  try {
    Reader::from_bytes("FC");  // shorter than the magic itself
    FAIL() << "tiny file must throw";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.code(), Errc::kBadMagic);
  }
}

// A future layout and the previous one (whose env section carried the
// fault crash chain and the last round's outcome) are both refused.
TEST(CkptFormat, WrongVersionIsTyped) {
  for (const std::uint32_t version : {kFormatVersion + 1, kFormatVersion - 1}) {
    std::string bytes = small_container();
    bytes[4] = static_cast<char>(version);
    try {
      Reader::from_bytes(bytes);
      FAIL() << "version " << version << " must throw";
    } catch (const CkptError& e) {
      EXPECT_EQ(e.code(), Errc::kBadVersion) << "version " << version;
    }
  }
}

TEST(CkptFormat, EveryTruncationIsTyped) {
  const std::string bytes = small_container();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    try {
      Reader::from_bytes(bytes.substr(0, len));
      FAIL() << "truncation to " << len << " bytes must throw";
    } catch (const CkptError& e) {
      // Shorter than the magic reads as "not a checkpoint"; anything
      // longer must be diagnosed as truncation.
      if (len >= 4) {
        EXPECT_EQ(e.code(), Errc::kTruncated) << "at length " << len;
      } else {
        EXPECT_EQ(e.code(), Errc::kBadMagic);
      }
    }
  }
}

TEST(CkptFormat, TrailingGarbageIsTyped) {
  std::string bytes = small_container();
  bytes += "extra";
  try {
    Reader::from_bytes(bytes);
    FAIL() << "trailing bytes must throw";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.code(), Errc::kMalformed);
  }
}

TEST(CkptFormat, EveryBitFlipIsRejected) {
  // Exhaustive single-bit-flip fuzz: no flipped container may validate
  // (magic, version, size, table and payloads are all covered by a check)
  // and every rejection must be a typed CkptError — never UB or a crash.
  const std::string bytes = small_container();
  for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      EXPECT_THROW(Reader::from_bytes(flipped), CkptError)
          << "flip of byte " << byte << " bit " << bit << " validated";
    }
  }
}

TEST(CkptFormat, RandomCorruptionNeverCrashes) {
  // Heavier random fuzz: splice random garbage over random spans. Any
  // outcome is fine except UB — so we only require that failures are
  // CkptError (success is possible when corruption hits redundant bytes:
  // there are none today, but the property we pin is "no crash").
  const std::string bytes = small_container();
  Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    std::string fuzzed = bytes;
    const std::size_t start = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(fuzzed.size() - 1)));
    const std::size_t len = static_cast<std::size_t>(rng.uniform_int(1, 16));
    for (std::size_t i = start; i < fuzzed.size() && i < start + len; ++i) {
      fuzzed[i] = static_cast<char>(rng.next_u64() & 0xff);
    }
    try {
      Reader r = Reader::from_bytes(fuzzed);
      for (const auto& s : r.sections()) (void)r.open(s.name);
    } catch (const CkptError&) {
      // expected for essentially every trial
    }
  }
}

TEST(CkptFormat, WriteFileIsAtomicAndReadable) {
  TempFile tmp("fedra_ckpt_roundtrip.ckpt");
  Writer w;
  w.add("data").put_u64(99);
  w.write_file(tmp.path());
  // The temp file must be gone after the rename.
  std::ifstream leftover(tmp.path() + ".tmp");
  EXPECT_FALSE(leftover.good());

  Reader r = Reader::from_file(tmp.path());
  ByteReader d = r.open("data");
  EXPECT_EQ(d.get_u64(), 99u);

  // Overwriting an existing checkpoint swaps in the new content whole.
  Writer w2;
  w2.add("data").put_u64(100);
  w2.write_file(tmp.path());
  Reader r2 = Reader::from_file(tmp.path());
  ByteReader d2 = r2.open("data");
  EXPECT_EQ(d2.get_u64(), 100u);
}

TEST(CkptFormat, UnwritablePathIsTyped) {
  Writer w;
  w.add("data").put_u64(1);
  try {
    w.write_file("/no/such/fedra/dir/file.ckpt");
    FAIL() << "unwritable path must throw";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.code(), Errc::kIo);
  }
}

TEST(CkptFormat, MissingFileIsTyped) {
  try {
    Reader::from_file("/no/such/fedra/file.ckpt");
    FAIL() << "missing file must throw";
  } catch (const CkptError& e) {
    EXPECT_EQ(e.code(), Errc::kIo);
  }
}

}  // namespace
}  // namespace fedra::ckpt
