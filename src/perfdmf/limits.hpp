// Hard sanity caps applied by the profile importers.
//
// Profile files are untrusted input: a single hostile row ("thread":-1,
// "threads":1e18) must not be able to drive unbounded allocation, integer
// wraparound, or undefined float->integer casts. Every importer funnels
// dimension-like numbers through these checks and throws ParseError --
// never bad_alloc, never InvalidArgumentError from deep inside Trial --
// so the ingest contract (parse or ParseError/IoError) holds.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace perfknow::perfdmf {

/// Highest thread index any importer accepts (1M threads covers every
/// TAU/PerfDMF deployment we know of by a wide margin).
inline constexpr std::size_t kMaxThreads = 1u << 20;

/// Cap on threads * events * metrics cells a single imported trial may
/// allocate (each cell is two doubles; 2^26 cells ~= 1 GiB total).
inline constexpr std::size_t kMaxCells = 1u << 26;

/// True when `v` is an integer in [0, max] (never for NaN). The
/// comparison happens in double so no UB-prone float->integer cast is
/// ever applied to a bad value.
inline bool is_index(double v, std::size_t max) {
  return v >= 0.0 && v == std::floor(v) && v <= static_cast<double>(max);
}

/// Converts a number parsed from an untrusted profile to an array index.
/// Rejects NaN, negatives, non-integral values and anything above `max`
/// (everything is_index rejects) with a ParseError naming the field.
inline std::size_t checked_index(double v, std::size_t max,
                                 std::string_view what, int line = 0) {
  if (!is_index(v, max)) {
    throw ParseError(std::string(what) +
                         " out of range (must be an integer in [0, " +
                         std::to_string(max) + "])",
                     line);
  }
  return static_cast<std::size_t>(v);
}

/// Validates the prospective trial shape before any allocation happens.
inline void check_cells(std::size_t threads, std::size_t events,
                        std::size_t metrics, int line = 0) {
  if (threads == 0) threads = 1;
  if (events == 0) events = 1;
  if (metrics == 0) metrics = 1;
  // Divide instead of multiplying so the guard itself cannot overflow.
  if (threads > kMaxCells / events ||
      threads * events > kMaxCells / metrics) {
    throw ParseError("profile too large (threads*events*metrics exceeds " +
                         std::to_string(kMaxCells) + " cells)",
                     line);
  }
}

/// The CSV and JSON readers parse their rows in chunks of about this
/// many bytes (TAU parses one file per chunk). An input of one chunk is
/// read on the calling thread alone (ThreadPool::ordered_for with n = 1).
inline constexpr std::size_t kIngestChunkBytes = std::size_t{128} << 10;

/// The staging a reader reserves for the chunks it parses ahead of its
/// applies stays within this many bytes (or one slot, when a single
/// slot is larger), whatever the pool size.
inline constexpr std::size_t kIngestStagingBytes = std::size_t{8} << 20;

/// How many chunks a reader whose staging slots reserve `slot_bytes`
/// each parses ahead of the rows it applies (ThreadPool::ordered_for's
/// window): one per pool thread and one for the caller, but no more
/// slots than fit in kIngestStagingBytes, and at least one.
inline std::size_t ingest_window(const ThreadPool& pool,
                                 std::size_t slot_bytes) {
  const std::size_t fit =
      kIngestStagingBytes / std::max<std::size_t>(slot_bytes, 1);
  return std::clamp<std::size_t>(fit, 1, pool.thread_count() + 1);
}

}  // namespace perfknow::perfdmf
