// Whole-file reads for the text and binary readers: one sized read into
// one buffer, which the parsers then scan in place.
#pragma once

#include <filesystem>
#include <string>

namespace perfknow {

/// The bytes of `path`, read with one sized read. Throws IoError
/// "<what>: <path>" when it is not a readable regular file.
[[nodiscard]] std::string read_file_bytes(
    const std::filesystem::path& path,
    const std::string& what = "cannot open for reading");

/// read_file_bytes into `bytes`, reusing its capacity: a reader that
/// reads many files into one buffer allocates only when a file is
/// larger than every one before it.
void read_file_bytes(const std::filesystem::path& path, std::string& bytes,
                     const std::string& what = "cannot open for reading");

}  // namespace perfknow
