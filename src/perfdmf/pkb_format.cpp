#include "perfdmf/pkb_format.hpp"

#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "perfdmf/limits.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define PERFKNOW_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace perfknow::perfdmf {

namespace {

constexpr bool kHostLittle = std::endian::native == std::endian::little;

constexpr std::uint32_t fourcc(const char (&s)[5]) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24;
}

constexpr std::uint32_t kTagSchema = fourcc("SCHM");
constexpr std::uint32_t kTagMeta = fourcc("META");
constexpr std::uint32_t kTagColumns = fourcc("COLS");
constexpr std::uint32_t kTagEnd = fourcc("PKBE");

std::string tag_name(std::uint32_t tag) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xFFu);
    out += (c >= 0x20 && c < 0x7F) ? c : '?';
  }
  return out;
}

constexpr std::size_t align8(std::size_t n) { return (n + 7u) & ~std::size_t{7}; }

// std::byteswap is C++23; this project is C++20.
constexpr std::uint64_t bswap64(std::uint64_t v) {
  v = ((v & 0x00FF00FF00FF00FFull) << 8) | ((v >> 8) & 0x00FF00FF00FF00FFull);
  v = ((v & 0x0000FFFF0000FFFFull) << 16) |
      ((v >> 16) & 0x0000FFFF0000FFFFull);
  return (v << 32) | (v >> 32);
}

// ---- little-endian encoding --------------------------------------------

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFFu);
}

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFFu);
}

void append_i64(std::string& out, std::int64_t v) {
  append_u64(out, static_cast<std::uint64_t>(v));
}

void append_str(std::string& out, std::string_view s) {
  append_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

// ---- section writer -----------------------------------------------------

void write_section_header(std::ostream& os, std::uint32_t tag,
                          std::uint32_t crc, std::uint64_t len) {
  std::string hdr;
  hdr.reserve(16);
  append_u32(hdr, tag);
  append_u32(hdr, crc);
  append_u64(hdr, len);
  os.write(hdr.data(), static_cast<std::streamsize>(hdr.size()));
}

void write_section(std::ostream& os, std::uint32_t tag,
                   std::string_view payload) {
  write_section_header(os, tag, crc32(payload.data(), payload.size()),
                       payload.size());
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  static constexpr char kZeros[8] = {};
  const std::size_t pad = align8(payload.size()) - payload.size();
  if (pad != 0) os.write(kZeros, static_cast<std::streamsize>(pad));
}

// ---- column rows --------------------------------------------------------

/// Hands every row of the trial's columns, in COLS order and
/// little-endian, to `sink(const char*, bytes)`: event_count() values
/// per row, skipping the spare event capacity of owned columns.
template <typename Sink>
void for_each_column_row(const profile::Trial& trial, Sink&& sink) {
  const std::size_t events = trial.event_count();
  if (events == 0) return;
  std::vector<double> swapped;  // big-endian hosts only
  for (std::size_t c = 0; c < trial.column_count(); ++c) {
    for (std::size_t t = 0; t < trial.thread_count(); ++t) {
      const double* row = trial.column(c) + t * trial.row_stride();
      if constexpr (!kHostLittle) {
        swapped.resize(events);
        for (std::size_t e = 0; e < events; ++e) {
          swapped[e] = std::bit_cast<double>(
              bswap64(std::bit_cast<std::uint64_t>(row[e])));
        }
        row = swapped.data();
      }
      sink(reinterpret_cast<const char*>(row), events * sizeof(double));
    }
  }
}

// ---- parse cursor -------------------------------------------------------

struct Cursor {
  std::string_view data;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("PKB: " + what + " (at byte offset " +
                     std::to_string(pos) + ")");
  }

  void need(std::size_t n, const char* what) const {
    if (pos > data.size() || n > data.size() - pos) {
      fail(std::string("truncated ") + what + ": need " + std::to_string(n) +
           " bytes, " + std::to_string(data.size() - pos) + " left");
    }
  }

  std::uint32_t read_u32(const char* what) {
    need(4, what);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data[pos + i]))
           << (8 * i);
    }
    pos += 4;
    return v;
  }

  std::uint64_t read_u64(const char* what) {
    need(8, what);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(data[pos + i]))
           << (8 * i);
    }
    pos += 8;
    return v;
  }

  std::string read_str(const char* what) {
    const std::uint32_t len = read_u32(what);
    need(len, what);
    std::string out(data.substr(pos, len));
    pos += len;
    return out;
  }
};

struct Section {
  std::uint32_t tag = 0;
  std::uint32_t crc = 0;
  std::size_t payload_off = 0;
  std::size_t payload_len = 0;
};

/// Reads one section header at the cursor, bounds-checks the payload,
/// optionally verifies its CRC, and leaves the cursor at the payload.
Section read_section(Cursor& cur, bool verify_crc) {
  const std::size_t header_off = cur.pos;
  const std::uint32_t tag = cur.read_u32("section header");
  const std::uint32_t crc = cur.read_u32("section header");
  const std::uint64_t len = cur.read_u64("section header");
  if (len > cur.data.size() - cur.pos) {
    cur.pos = header_off;
    cur.fail("section '" + tag_name(tag) + "' length " + std::to_string(len) +
             " overruns the snapshot (" +
             std::to_string(cur.data.size() - cur.pos - 16) +
             " payload bytes left)");
  }
  if (verify_crc &&
      crc32(cur.data.data() + cur.pos, static_cast<std::size_t>(len)) != crc) {
    cur.pos = header_off;
    cur.fail("bad section checksum in '" + tag_name(tag) + "'");
  }
  return Section{tag, crc, cur.pos, static_cast<std::size_t>(len)};
}

void expect_tag(const Cursor& cur, const Section& s, std::uint32_t want) {
  if (s.tag != want) {
    Cursor at = cur;
    at.pos = s.payload_off - 16;
    at.fail("expected section '" + tag_name(want) + "', found '" +
            tag_name(s.tag) + "'");
  }
}

/// Where a PKB image's value columns live: the thread count the schema
/// declares and the absolute offset of the COLS payload.
struct PkbLayout {
  std::size_t threads = 0;
  std::size_t cols_offset = 0;
};

/// Parses and validates a PKB image — magic, version, section structure,
/// schema sanity against perfdmf/limits.hpp, and section checksums — into
/// `trial`'s name, metadata, metrics and events (a default-constructed
/// trial, so no cells are allocated). When `verify_columns` is false the
/// (potentially huge) COLS payload's CRC is skipped — structure and
/// bounds are still fully validated — so opening a large snapshot stays
/// O(schema), not O(cube).
PkbLayout parse_pkb_layout(std::string_view bytes, bool verify_columns,
                            profile::Trial& trial) {
  Cursor cur{bytes, 0};
  cur.need(8, "header");
  if (bytes.substr(0, 4) != kPkbMagic) {
    cur.fail("not a PKB snapshot (bad magic)");
  }
  cur.pos = 4;
  if (const auto version = cur.read_u32("version"); version != kPkbVersion) {
    cur.pos = 4;
    cur.fail("unsupported version " + std::to_string(version));
  }

  PkbLayout layout;

  // SCHM
  const Section schm = read_section(cur, /*verify_crc=*/true);
  expect_tag(cur, schm, kTagSchema);
  const std::size_t schm_end = schm.payload_off + schm.payload_len;
  {
    // Parse within the section's bounds only.
    Cursor sc{bytes.substr(0, schm_end), schm.payload_off};
    const std::uint64_t threads = sc.read_u64("thread count");
    if (threads > kMaxThreads) {
      sc.fail("thread count " + std::to_string(threads) +
              " exceeds the importer cap of " + std::to_string(kMaxThreads));
    }
    layout.threads = static_cast<std::size_t>(threads);
    trial.set_name(sc.read_str("trial name"));

    // The trial's name index doubles as the duplicate check: adding a
    // name it already holds returns the earlier id.
    const std::uint32_t metric_count = sc.read_u32("metric count");
    for (std::uint32_t m = 0; m < metric_count; ++m) {
      std::string name = sc.read_str("metric name");
      std::string units = sc.read_str("metric units");
      sc.need(1, "metric derived flag");
      const bool derived = bytes[sc.pos++] != 0;
      const auto id = trial.add_metric(std::move(name), std::move(units),
                                       derived);
      if (id != m) {
        sc.fail("duplicate metric name '" + trial.metric(id).name + "'");
      }
    }

    const std::uint32_t event_count = sc.read_u32("event count");
    for (std::uint32_t e = 0; e < event_count; ++e) {
      std::string name = sc.read_str("event name");
      const auto parent =
          static_cast<std::int64_t>(sc.read_u64("event parent"));
      if (parent < -1 || parent >= static_cast<std::int64_t>(e)) {
        sc.fail("event " + std::to_string(e) + " has bad parent id " +
                std::to_string(parent) +
                " (must be -1 or an earlier event)");
      }
      std::string group = sc.read_str("event group");
      const auto id = trial.add_event(
          std::move(name),
          parent < 0 ? profile::kNoEvent
                     : static_cast<profile::EventId>(parent),
          std::move(group));
      if (id != e) {
        sc.fail("duplicate event name '" + trial.event(id).name + "'");
      }
    }
    if (sc.pos != schm_end) {
      sc.fail("schema section has " + std::to_string(schm_end - sc.pos) +
              " trailing bytes");
    }
    check_cells(layout.threads, trial.event_count(), trial.metric_count());
  }
  cur.pos = align8(schm_end);

  // META
  const Section meta = read_section(cur, /*verify_crc=*/true);
  expect_tag(cur, meta, kTagMeta);
  const std::size_t meta_end = meta.payload_off + meta.payload_len;
  {
    Cursor mc{bytes.substr(0, meta_end), meta.payload_off};
    const std::uint32_t count = mc.read_u32("metadata count");
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::string key = mc.read_str("metadata key");
      trial.set_metadata(key, mc.read_str("metadata value"));
    }
    if (mc.pos != meta_end) {
      mc.fail("metadata section has " + std::to_string(meta_end - mc.pos) +
              " trailing bytes");
    }
  }
  cur.pos = align8(meta_end);

  // COLS
  const Section cols = read_section(cur, verify_columns);
  expect_tag(cur, cols, kTagColumns);
  const std::size_t expected = trial.column_count() * layout.threads *
                               trial.event_count() * sizeof(double);
  if (cols.payload_len != expected) {
    cur.pos = cols.payload_off - 16;
    cur.fail("column section is " + std::to_string(cols.payload_len) +
             " bytes, schema requires " + std::to_string(expected));
  }
  layout.cols_offset = cols.payload_off;
  cur.pos = align8(cols.payload_off + cols.payload_len);

  // PKBE
  const Section end = read_section(cur, /*verify_crc=*/true);
  expect_tag(cur, end, kTagEnd);
  if (end.payload_len != 0) {
    cur.pos = end.payload_off - 16;
    cur.fail("end marker carries a payload");
  }
  if (end.payload_off != bytes.size()) {
    cur.pos = end.payload_off;
    cur.fail("snapshot has " + std::to_string(bytes.size() - end.payload_off) +
             " bytes after the end marker");
  }
  return layout;
}

/// An immutable PKB image trials borrow their columns from: the bytes
/// handed to parse_pkb, or a read-only private mapping of a snapshot.
class Image {
 public:
  explicit Image(std::string bytes) : bytes_(std::move(bytes)), view_(bytes_) {}
  Image(void* base, std::size_t len) noexcept
      : map_base_(base), view_(static_cast<const char*>(base), len) {}
  Image(const Image&) = delete;
  Image& operator=(const Image&) = delete;
  ~Image() {
#if PERFKNOW_HAVE_MMAP
    if (map_base_ != nullptr) ::munmap(map_base_, view_.size());
#endif
  }

  /// Shares the image as the byte view a trial keeps alive.
  [[nodiscard]] static std::shared_ptr<const std::string_view> share(
      std::shared_ptr<const Image> image) {
    const std::string_view* view = &image->view_;
    return {std::move(image), view};
  }

 private:
  std::string bytes_;
  void* map_base_ = nullptr;
  std::string_view view_;
};

std::shared_ptr<const std::string_view> map_file(
    const std::filesystem::path& file) {
#if PERFKNOW_HAVE_MMAP
  const int fd = ::open(file.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st{};
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
      const auto len = static_cast<std::size_t>(st.st_size);
      void* base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
      ::close(fd);
      if (base != MAP_FAILED) {
        return Image::share(std::make_shared<const Image>(base, len));
      }
    } else {
      ::close(fd);
    }
  }
  // Fall through to the buffered path on any failure; it produces the
  // proper IoError/ParseError diagnostics.
#endif
  std::ifstream is(file, std::ios::binary);
  if (!is) {
    throw IoError("cannot open PKB snapshot: " + file.string());
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  return Image::share(std::make_shared<const Image>(std::move(ss).str()));
}

/// Builds the trial an image holds. On little-endian hosts its columns
/// point into the image; elsewhere they are decoded into owned storage,
/// which needs the column checksum verified first.
profile::Trial trial_from_image(std::shared_ptr<const std::string_view> image,
                                Verify verify) {
  const std::string_view bytes = *image;
  profile::Trial trial;
  const PkbLayout layout = parse_pkb_layout(
      bytes, verify == Verify::kFull || !kHostLittle, trial);
  const char* cols = bytes.data() + layout.cols_offset;
  if constexpr (kHostLittle) {
    // Images start 8-byte aligned (mmap'd pages, heap strings) and the
    // format aligns every section payload, so the reinterpret is safe.
    trial.borrow_columns(std::move(image),
                         reinterpret_cast<const double*>(cols),
                         layout.threads);
  } else {
    trial.set_thread_count(layout.threads);
    const std::size_t events = trial.event_count();
    const std::size_t column_bytes = layout.threads * events * sizeof(double);
    const auto cell = [&](std::size_t column, std::size_t t, std::size_t e) {
      std::uint64_t bits;
      std::memcpy(&bits,
                  cols + column * column_bytes +
                      (t * events + e) * sizeof(double),
                  sizeof bits);
      return std::bit_cast<double>(bswap64(bits));
    };
    const std::size_t calls = 2 * trial.metric_count();
    for (std::size_t t = 0; t < layout.threads; ++t) {
      for (profile::EventId e = 0; e < events; ++e) {
        for (profile::MetricId m = 0; m < trial.metric_count(); ++m) {
          trial.set_inclusive(t, e, m, cell(2 * m, t, e));
          trial.set_exclusive(t, e, m, cell(2 * m + 1, t, e));
        }
        trial.set_calls(t, e, cell(calls, t, e), cell(calls + 1, t, e));
      }
    }
  }
  return trial;
}

}  // namespace

void write_pkb(const profile::Trial& trial, std::ostream& os) {
  os.write(kPkbMagic.data(), static_cast<std::streamsize>(kPkbMagic.size()));
  std::string version;
  append_u32(version, kPkbVersion);
  os.write(version.data(), static_cast<std::streamsize>(version.size()));

  // SCHM
  std::string schema;
  append_u64(schema, trial.thread_count());
  append_str(schema, trial.name());
  append_u32(schema, static_cast<std::uint32_t>(trial.metric_count()));
  for (profile::MetricId m = 0; m < trial.metric_count(); ++m) {
    const auto& metric = trial.metric(m);
    append_str(schema, metric.name);
    append_str(schema, metric.units);
    schema += static_cast<char>(metric.derived ? 1 : 0);
  }
  append_u32(schema, static_cast<std::uint32_t>(trial.event_count()));
  for (profile::EventId e = 0; e < trial.event_count(); ++e) {
    const auto& ev = trial.event(e);
    append_str(schema, ev.name);
    append_i64(schema, ev.parent == profile::kNoEvent
                           ? -1
                           : static_cast<std::int64_t>(ev.parent));
    append_str(schema, ev.group);
  }
  write_section(os, kTagSchema, schema);

  // META
  std::string meta;
  append_u32(meta, static_cast<std::uint32_t>(trial.all_metadata().size()));
  for (const auto& [k, v] : trial.all_metadata()) {
    append_str(meta, k);
    append_str(meta, v);
  }
  write_section(os, kTagMeta, meta);

  // COLS — written straight from the trial's column rows: pass 1
  // computes the payload CRC (the header precedes the payload), pass 2
  // writes the same bytes.
  std::uint32_t crc = 0;
  for_each_column_row(trial, [&](const char* p, std::size_t n) {
    crc = crc32(p, n, crc);
  });
  const std::uint64_t cols_len = trial.column_count() * trial.thread_count() *
                                 trial.event_count() * sizeof(double);
  write_section_header(os, kTagColumns, crc, cols_len);
  for_each_column_row(trial, [&](const char* p, std::size_t n) {
    os.write(p, static_cast<std::streamsize>(n));
  });
  // cols_len is a multiple of 8, so no padding is needed.

  write_section(os, kTagEnd, {});
}

std::string to_pkb(const profile::Trial& trial) {
  std::ostringstream os;
  write_pkb(trial, os);
  return std::move(os).str();
}


profile::Trial open_pkb(const std::filesystem::path& file, Verify verify) {
  try {
    return trial_from_image(map_file(file), verify);
  } catch (const ParseError& e) {
    if (e.file().empty()) throw e.with_file(file.string());
    throw;
  }
}

profile::Trial parse_pkb(std::string bytes) {
  return trial_from_image(
      Image::share(std::make_shared<const Image>(std::move(bytes))),
      Verify::kFull);
}

void verify_pkb_columns(const profile::Trial& trial) {
  if (!trial.image()) return;
  // Borrowed columns are the image's COLS payload, so the section header
  // sits just before column 0.
  const std::string_view bytes = *trial.image();
  const auto payload = static_cast<std::size_t>(
      reinterpret_cast<const char*>(trial.column(0)) - bytes.data());
  Cursor cur{bytes, payload - 16};
  const Section cols = read_section(cur, /*verify_crc=*/true);
  expect_tag(cur, cols, kTagColumns);
}

}  // namespace perfknow::perfdmf
