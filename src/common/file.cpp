#include "common/file.hpp"

#include <fstream>

#include "common/error.hpp"

namespace perfknow {

std::string read_file_bytes(const std::filesystem::path& path,
                            const std::string& what) {
  std::string bytes;
  read_file_bytes(path, bytes, what);
  return bytes;
}

void read_file_bytes(const std::filesystem::path& path, std::string& bytes,
                     const std::string& what) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    throw IoError(what + ": " + path.string());
  }
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  if (!is) throw IoError(what + ": " + path.string());
  const std::streamoff size = is.tellg();
  if (size < 0) throw IoError(what + ": " + path.string());
  bytes.resize(static_cast<std::size_t>(size));
  is.seekg(0);
  is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!is) throw IoError("read failed: " + path.string());
}

}  // namespace perfknow
