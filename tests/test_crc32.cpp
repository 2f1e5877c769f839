// CRC-32 (IEEE, reflected 0xEDB88320): the dispatched implementation
// (carry-less-multiply folding where the CPU has it, slicing-by-8
// otherwise) and the portable table path must both agree with the
// textbook bytewise definition at every length, alignment and chaining
// split, including splits that straddle the 16- and 64-byte fold blocks.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/crc32.hpp"

namespace pk = perfknow;

namespace {

std::uint32_t bytewise_crc32(const unsigned char* p, std::size_t n,
                             std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> pattern(std::size_t n) {
  std::vector<unsigned char> out(n);
  std::uint32_t x = 0x12345678u;
  for (auto& b : out) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  return out;
}

}  // namespace

TEST(Crc32, CheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(pk::crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(pk::detail::crc32_portable(check.data(), check.size()),
            0xCBF43926u);
  EXPECT_EQ(pk::crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesBytewiseAtEveryLengthAndAlignment) {
  // Up to 1100 bytes: every 16-byte tail length after every count of
  // 64-byte fold blocks, from every alignment within a 16-byte load.
  const auto buf = pattern(1100 + 16);
  for (std::size_t align = 0; align < 16; ++align) {
    const unsigned char* p = buf.data() + align;
    for (std::size_t len = 0; len <= 1100; ++len) {
      const std::uint32_t want = bytewise_crc32(p, len);
      ASSERT_EQ(pk::crc32(p, len), want) << "align " << align << " len "
                                         << len;
      ASSERT_EQ(pk::detail::crc32_portable(p, len), want)
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32, ChainedSeedsMatchOneShot) {
  const auto buf = pattern(1000);
  const std::uint32_t whole = bytewise_crc32(buf.data(), buf.size());
  for (const std::size_t split :
       {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 63u, 64u, 65u, 79u, 80u, 127u,
        128u, 129u, 500u, 935u, 936u, 937u, 984u, 985u, 999u, 1000u}) {
    const std::uint32_t head = pk::crc32(buf.data(), split);
    EXPECT_EQ(pk::crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split " << split;
  }
  // Three chunks whose middle one is a fold body with a tail, entered
  // and left off the 16-byte grid.
  for (const std::size_t a : {3u, 16u, 61u, 64u, 67u}) {
    for (const std::size_t b : {64u, 65u, 79u, 128u, 143u, 200u}) {
      std::uint32_t c = pk::crc32(buf.data(), a);
      c = pk::crc32(buf.data() + a, b, c);
      c = pk::crc32(buf.data() + a + b, buf.size() - a - b, c);
      EXPECT_EQ(c, whole) << "chunks " << a << " + " << b;
    }
  }
  // A non-zero seed through the table and fold paths agrees with the
  // reference.
  for (const std::size_t len : {77u, 64u, 333u}) {
    EXPECT_EQ(pk::crc32(buf.data(), len, 0xDEADBEEFu),
              bytewise_crc32(buf.data(), len, 0xDEADBEEFu))
        << "len " << len;
  }
}

TEST(Crc32, LargeBufferMatchesBytewise) {
  const auto buf = pattern(std::size_t{1} << 20);
  EXPECT_EQ(pk::crc32(buf.data(), buf.size()),
            bytewise_crc32(buf.data(), buf.size()));
}

TEST(Crc32, SixteenMebibyteBufferWithOddTailMatchesBytewise) {
  // Bigger than any cache level: the fold's main loop runs 262,144 times
  // and ends on a 13-byte table tail.
  const auto buf = pattern((std::size_t{16} << 20) + 13);
  EXPECT_EQ(pk::crc32(buf.data(), buf.size()),
            bytewise_crc32(buf.data(), buf.size()));
}

TEST(Crc32, PortablePathEqualsDispatchedPath) {
  // Whichever path crc32 takes on this host, the portable one agrees
  // with it on every length class, seed and a large body.
  const auto buf = pattern((std::size_t{1} << 18) + 5);
  for (const std::size_t len :
       {0u, 1u, 15u, 16u, 63u, 64u, 65u, 255u, 256u, 4099u}) {
    for (const std::uint32_t seed : {0u, 1u, 0xFFFFFFFFu, 0x9E3779B9u}) {
      EXPECT_EQ(pk::detail::crc32_portable(buf.data() + 3, len, seed),
                pk::crc32(buf.data() + 3, len, seed))
          << "len " << len << " seed " << seed;
    }
  }
  EXPECT_EQ(pk::detail::crc32_portable(buf.data(), buf.size()),
            pk::crc32(buf.data(), buf.size()));
}
