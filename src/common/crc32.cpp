#include "common/crc32.hpp"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace perfknow {

namespace {

// Slicing-by-8 tables: kTables[0] is the classic bytewise table, and
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// input bytes fold into the register with eight independent lookups.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

// Little-endian load assembled from bytes: endian- and alignment-neutral,
// and compiled to a single load on little-endian hosts.
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// Advances the (pre-inverted) register `c` over n bytes with the tables.
std::uint32_t table_update(std::uint32_t c, const unsigned char* p,
                           std::size_t n) {
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__)

/// True when the CPU has PCLMULQDQ. Checked on first use, not by a static
/// initializer, so the CPU model is known by then.
bool have_clmul() {
  static const bool have = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return have;
}

/// One 128-bit fold: x' = hi(x) * k_hi ^ lo(x) * k_lo ^ next.
__attribute__((target("pclmul"))) __m128i fold(__m128i x, __m128i k,
                                               __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x11),
                                     _mm_clmulepi64_si128(x, k, 0x00)),
                       next);
}

/// Advances the (pre-inverted) register `c` over n bytes, n >= 64 and a
/// multiple of 16, by carry-less-multiply folding: "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction" (Gopal et al.,
/// Intel, 2009), with the bit-reflected constants of zlib's crc32_simd.
/// Four 128-bit accumulators fold 64 bytes per step; they fold into one,
/// which folds the remaining 16-byte blocks, then 128 bits reduce to 64
/// and a Barrett reduction gives the 32-bit register.
__attribute__((target("pclmul"))) std::uint32_t clmul_update(
    std::uint32_t c, const unsigned char* p, std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  const auto load = [](const unsigned char* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };

  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 bits to 64.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

#endif  // __x86_64__

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
#if defined(__x86_64__)
  if (n >= 64 && have_clmul()) {
    const auto* p = static_cast<const unsigned char*>(data);
    const std::size_t body = n & ~std::size_t{15};
    const std::uint32_t c = clmul_update(seed ^ 0xFFFFFFFFu, p, body);
    return table_update(c, p + body, n - body) ^ 0xFFFFFFFFu;
  }
#endif
  return detail::crc32_portable(data, n, seed);
}

namespace detail {

std::uint32_t crc32_portable(const void* data, std::size_t n,
                             std::uint32_t seed) {
  return table_update(seed ^ 0xFFFFFFFFu,
                      static_cast<const unsigned char*>(data), n) ^
         0xFFFFFFFFu;
}

}  // namespace detail

}  // namespace perfknow
