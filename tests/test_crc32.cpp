// CRC-32 (IEEE, reflected 0xEDB88320): the slicing-by-8 implementation
// must agree with the textbook bytewise definition at every length,
// alignment and chaining split.
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
  EXPECT_EQ(pk::crc32(nullptr, 0), 0u);
}

TEST(Crc32, MatchesBytewiseAtEveryLengthAndAlignment) {
  const auto buf = pattern(64 + 8);
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const unsigned char* p = buf.data() + align;
      EXPECT_EQ(pk::crc32(p, len), bytewise_crc32(p, len))
          << "align " << align << " len " << len;
    }
  }
}

TEST(Crc32, ChainedSeedsMatchOneShot) {
  const auto buf = pattern(1000);
  const std::uint32_t whole = bytewise_crc32(buf.data(), buf.size());
  for (const std::size_t split : {0u, 1u, 7u, 8u, 9u, 500u, 999u, 1000u}) {
    const std::uint32_t head = pk::crc32(buf.data(), split);
    EXPECT_EQ(pk::crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split " << split;
  }
  // A non-zero seed through the slicing path agrees with the reference.
  EXPECT_EQ(pk::crc32(buf.data(), 77, 0xDEADBEEFu),
            bytewise_crc32(buf.data(), 77, 0xDEADBEEFu));
}

TEST(Crc32, LargeBufferMatchesBytewise) {
  const auto buf = pattern(std::size_t{1} << 20);
  EXPECT_EQ(pk::crc32(buf.data(), buf.size()),
            bytewise_crc32(buf.data(), buf.size()));
}
