// Bump allocator + chunked columns: the storage building blocks shared
// by the columnar WorkingMemory (rules/fact.hpp) and the beta-memory
// join network (rules/beta.hpp).
//
// Arena hands out aligned slices of 64 KiB chunks and never frees them
// individually — the structures built on top are append-only between
// resets. reset() rewinds every chunk for reuse (no free/realloc churn
// across sessions) and bumps a generation counter so handle types can
// assert they never outlive the storage they point into. Bytes reserved
// are exposed for telemetry so self-diagnosis rules can watch state
// growth.
//
// Column<T> is the structure-of-arrays unit: an append-only chunked
// vector whose growth never moves existing elements, so interior
// pointers stay stable for the lifetime of a generation. Elements must
// be trivially destructible because the arena never runs destructors —
// values with heap parts (e.g. rules::FactValue) live in deque-backed
// side pools instead.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace perfknow {

/// Bump allocator with chunk reuse across resets.
class Arena {
 public:
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  void* allocate(std::size_t bytes, std::size_t align) {
    while (cur_ < chunks_.size()) {
      Chunk& c = chunks_[cur_];
      const std::size_t aligned = (c.used + align - 1) & ~(align - 1);
      if (aligned + bytes <= c.cap) {
        c.used = aligned + bytes;
        return c.data.get() + aligned;
      }
      ++cur_;
    }
    const std::size_t cap = std::max(bytes, kChunkBytes);
    Chunk c;
    c.data = std::make_unique<std::byte[]>(cap);
    c.cap = cap;
    c.used = bytes;
    reserved_ += cap;
    chunks_.push_back(std::move(c));
    return chunks_.back().data.get();
  }

  /// Rewinds every chunk for reuse and invalidates all outstanding
  /// allocations. Columns built on this arena must be clear()ed (or
  /// discarded) by the caller in the same breath.
  void reset() noexcept {
    for (Chunk& c : chunks_) c.used = 0;
    cur_ = 0;
    ++generation_;
  }

  [[nodiscard]] std::size_t bytes_reserved() const noexcept {
    return reserved_;
  }
  /// Bumped by every reset(); FactRef-style handles compare this to
  /// detect use across a clear().
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t used = 0;
    std::size_t cap = 0;
  };
  std::vector<Chunk> chunks_;
  std::size_t cur_ = 0;
  std::size_t reserved_ = 0;
  std::uint64_t generation_ = 0;
};

/// Append-only chunked column over an Arena: stable addresses (growth
/// never moves existing elements), O(1) append and index.
template <typename T>
class Column {
  static_assert(std::is_trivially_destructible_v<T>,
                "arena columns never run destructors");

 public:
  explicit Column(Arena& arena) : arena_(&arena) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    return chunks_[i >> kShift][i & kMask];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return chunks_[i >> kShift][i & kMask];
  }
  void push_back(T v) {
    if ((size_ & kMask) == 0 && (size_ >> kShift) == chunks_.size()) {
      chunks_.push_back(static_cast<T*>(
          arena_->allocate(sizeof(T) << kShift, alignof(T))));
    }
    chunks_[size_ >> kShift][size_ & kMask] = v;
    ++size_;
  }

  /// Drops the elements from `n` on; their chunks stay for the next
  /// push_back. No-op when `n >= size()`.
  void truncate(std::size_t n) noexcept {
    if (n < size_) size_ = n;
  }

  /// Drops all elements AND the chunk pointers: the backing arena is
  /// expected to be reset() by the owner, which recycles the memory.
  void clear() noexcept {
    chunks_.clear();
    size_ = 0;
  }

 private:
  static constexpr std::size_t kShift = 12;  // 4096 elements per chunk
  static constexpr std::size_t kMask = (std::size_t{1} << kShift) - 1;
  Arena* arena_;
  std::vector<T*> chunks_;
  std::size_t size_ = 0;
};

}  // namespace perfknow
