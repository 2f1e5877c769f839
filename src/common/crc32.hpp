// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
// the PKB binary trial store uses to validate every section payload.
// Incremental: feed chunks by passing the previous result as `seed`.
//
// On x86-64 hosts with PCLMULQDQ, bodies of 64 bytes or more are folded
// with carry-less multiplies (four 128-bit lanes, then a Barrett
// reduction), at several GB/s; the slicing-by-8 table handles the tail
// and every other host. Both paths give the same value for every input.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfknow {

/// CRC-32 of `n` bytes at `data`. Chain calls by passing the previous
/// return value as `seed` (the seed of the first chunk is 0).
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t n,
                                  std::uint32_t seed = 0);

namespace detail {

/// crc32 by the slicing-by-8 table alone, whatever the CPU offers, so
/// the portable path stays tested on hosts that always fold.
[[nodiscard]] std::uint32_t crc32_portable(const void* data, std::size_t n,
                                           std::uint32_t seed = 0);

}  // namespace detail

}  // namespace perfknow
