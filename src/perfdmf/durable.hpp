// Durable file replacement for the repository's commit path.
//
// write_durably() is the one way a committed file reaches disk: the
// content goes to a sibling "<dest>.tmp" through a raw fd, the temp file
// is fsynced and renamed over `dest`, and `dest`'s directory is fsynced,
// so after it returns a power loss leaves either the old file or the new
// one, never a torn mix. Files written together are all fsynced before
// the first rename, and each directory is fsynced once. Internal to
// perfdmf (not part of perfknow.hpp).
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <vector>

namespace perfknow::perfdmf::detail {

/// One file for write_durably(): where it goes and what it holds.
struct DurableFile {
  std::filesystem::path dest;
  std::function<void(std::ostream&)> fill;
};

/// Replaces `files` as one step: each file's content goes to a sibling
/// temp file and is fsynced; then the temp files are renamed over their
/// destinations in order, and each destination directory is fsynced
/// once, after the last rename into it. Throws IoError naming the file
/// and the failing step. A failure before the first rename removes every
/// temp file and changes nothing; a failed rename leaves the files
/// renamed before it in place; a failed directory fsync leaves every new
/// file in place but not known to be durable.
void write_durably(const std::vector<DurableFile>& files);

/// Fault-injection seam for tests. Every write(), fsync() and rename()
/// write_durably() issues counts as one operation; after
/// fail_nth_operation(k) the k-th operation from now fails as if the
/// system call had returned EIO (k = 0 disarms). operation_count() is
/// the number of operations issued so far.
void fail_nth_operation(std::uint64_t k);
[[nodiscard]] std::uint64_t operation_count();

}  // namespace perfknow::perfdmf::detail
