#include "perfdmf/pkb_format.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/file.hpp"
#include "common/strings.hpp"
#include "perfdmf/limits.hpp"
#include "telemetry/telemetry.hpp"

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
constexpr std::uint32_t kTagSummary = fourcc("SUMM");
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

/// SUMM holds, per value column and event, the SeriesSummary fields
/// total, stddev, min and max.
constexpr std::size_t kSummaryFields = 4;
constexpr const char* kSummaryFieldNames[kSummaryFields] = {
    "total", "stddev", "min", "max"};

std::size_t summary_values(const profile::Trial& trial) {
  return 2 * trial.metric_count() * trial.event_count() * kSummaryFields;
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

#if defined(__x86_64__)
/// True when the CPU has AVX2. Checked on first use, not by a static
/// initializer, so the CPU model is known by then.
bool have_avx2() {
  static const bool have = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return have;
}

/// Four doubles in one GCC/Clang generic vector: arithmetic and
/// comparisons act lane by lane with the scalar IEEE operations.
using Lanes4 = double __attribute__((vector_size(4 * sizeof(double))));
#endif

/// A column's per-event accumulators: the Kahan sum and compensation (the
/// mean, once finish has computed it), min, max and squared-deviation
/// sum.
struct SummaryAccumulators {
  std::vector<double> total;
  std::vector<double> comp;
  std::vector<double> min;
  std::vector<double> max;
  std::vector<double> dev;
};

// Loads and stores of a double or a lane vector at any alignment.
// Vectors pass by reference only, so no function signature carries a
// 32-byte vector across the AVX/non-AVX ABI boundary.
template <typename V>
[[gnu::always_inline]] inline void load(V& v, const double* p) {
  std::memcpy(&v, p, sizeof v);
}
template <typename V>
[[gnu::always_inline]] inline void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

/// Folds rows[0..n), the next threads in order, into events [e, events)
/// of `a`, V's lanes at a time; returns the first event not reached (e
/// plus a multiple of the lane count). Per lane this is stats::'s Kahan
/// step and std::min(lo, x) / std::max(hi, x).
template <typename V>
[[gnu::always_inline]] inline std::size_t add_rows_span(
    SummaryAccumulators& a, const double* const* rows, std::size_t n,
    std::size_t e, std::size_t events) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  for (; e + kLanes <= events; e += kLanes) {
    V s{}, c{}, lo{}, hi{};
    load(s, &a.total[e]);
    load(c, &a.comp[e]);
    load(lo, &a.min[e]);
    load(hi, &a.max[e]);
    for (std::size_t k = 0; k < n; ++k) {
      V x{};
      load(x, rows[k] + e);
      const V y = x - c;
      const V t = s + y;
      c = (t - s) - y;
      s = t;
      lo = x < lo ? x : lo;
      hi = hi < x ? x : hi;
    }
    store(&a.total[e], s);
    store(&a.comp[e], c);
    store(&a.min[e], lo);
    store(&a.max[e], hi);
  }
  return e;
}

/// Adds the squared deviations of `rows` rows (stride apart, from
/// `block`) from each event's mean, held in a.comp, to events
/// [e, events) of a.dev, V's lanes at a time; returns the first event
/// not reached.
template <typename V>
[[gnu::always_inline]] inline std::size_t deviation_span(
    SummaryAccumulators& a, const double* block, std::size_t rows,
    std::size_t stride, std::size_t e, std::size_t events) {
  constexpr std::size_t kLanes = sizeof(V) / sizeof(double);
  for (; e + kLanes <= events; e += kLanes) {
    V mean{}, acc{};
    load(mean, &a.comp[e]);
    load(acc, &a.dev[e]);
    for (std::size_t k = 0; k < rows; ++k) {
      V x{};
      load(x, block + k * stride + e);
      const V d = x - mean;
      acc += d * d;
    }
    store(&a.dev[e], acc);
  }
  return e;
}

void add_rows_scalar(SummaryAccumulators& a, const double* const* rows,
                     std::size_t n) {
  add_rows_span<double>(a, rows, n, 0, a.total.size());
}

void deviation_scalar(SummaryAccumulators& a, const double* block,
                      std::size_t rows, std::size_t stride) {
  deviation_span<double>(a, block, rows, stride, 0, a.total.size());
}

#if defined(__x86_64__)
// The same spans four events at a time, then the scalar tail. No FMA:
// target("avx2") does not enable it, so nothing is contracted.
[[gnu::target("avx2")]] void add_rows_avx2(SummaryAccumulators& a,
                                           const double* const* rows,
                                           std::size_t n) {
  const std::size_t events = a.total.size();
  add_rows_span<double>(
      a, rows, n, add_rows_span<Lanes4>(a, rows, n, 0, events), events);
}

[[gnu::target("avx2")]] void deviation_avx2(SummaryAccumulators& a,
                                            const double* block,
                                            std::size_t rows,
                                            std::size_t stride) {
  const std::size_t events = a.total.size();
  deviation_span<double>(
      a, block, rows, stride,
      deviation_span<Lanes4>(a, block, rows, stride, 0, events), events);
}
#endif

/// Accumulates one value column's SUMM values a few rows (threads) at a
/// time. Every event keeps its own Kahan sum, min and max in thread
/// order and then its own squared-deviation sum, with stats::'s
/// expressions, so each value equals the stats:: reduction over the
/// event's StridedSpan bit for bit. Where the CPU has AVX2, four events
/// share one generic vector (each lane runs the scalar operations in the
/// scalar order) and the rest take the scalar path.
class ColumnSummarizer {
 public:
  /// Rows handed over together; each event's accumulators stay in
  /// registers across them.
  static constexpr std::size_t kBlock = 4;

  explicit ColumnSummarizer(std::size_t events)
      : acc_{std::vector<double>(events), std::vector<double>(events),
             std::vector<double>(events), std::vector<double>(events),
             std::vector<double>(events)} {
#if defined(__x86_64__)
    if (have_avx2()) {
      add_rows_ = add_rows_avx2;
      deviation_ = deviation_avx2;
    }
#endif
  }

  /// Adds rows[0..n) (n <= kBlock), the next threads in order; `first`
  /// when rows[0] is thread 0.
  void add_rows(const double* const* rows, std::size_t n, bool first) {
    if (first) {
      const std::size_t events = acc_.total.size();
      std::fill(acc_.total.begin(), acc_.total.end(), 0.0);
      std::fill(acc_.comp.begin(), acc_.comp.end(), 0.0);
      std::copy_n(rows[0], events, acc_.min.begin());
      std::copy_n(rows[0], events, acc_.max.begin());
    }
    add_rows_(acc_, rows, n);
  }

  /// Second pass over the column's `threads` rows (stride apart) for the
  /// stddev; writes the column's SUMM values to `out`.
  void finish(const double* column, std::size_t threads, std::size_t stride,
              double* out) {
    const std::size_t events = acc_.total.size();
    if (threads == 0) {
      std::fill_n(out, events * kSummaryFields, 0.0);
      return;
    }
    const auto n = static_cast<double>(threads);
    for (std::size_t e = 0; e < events; ++e) acc_.comp[e] = acc_.total[e] / n;
    std::fill(acc_.dev.begin(), acc_.dev.end(), 0.0);
    for (std::size_t t0 = 0; t0 < threads; t0 += kBlock) {
      deviation_(acc_, column + t0 * stride, std::min(kBlock, threads - t0),
                 stride);
    }
    for (std::size_t e = 0; e < events; ++e) {
      double* s = out + e * kSummaryFields;
      s[0] = acc_.total[e];
      s[1] = std::sqrt(acc_.dev[e] / n);
      s[2] = acc_.min[e];
      s[3] = acc_.max[e];
    }
  }

 private:
  SummaryAccumulators acc_;
  void (*add_rows_)(SummaryAccumulators&, const double* const*,
                    std::size_t) = add_rows_scalar;
  void (*deviation_)(SummaryAccumulators&, const double*, std::size_t,
                     std::size_t) = deviation_scalar;
};

/// One row-wise walk over the trial's columns in COLS order: hands every
/// row to `sink(const char*, bytes)` little-endian, as COLS stores it
/// (event_count() values per row, skipping the spare event capacity of
/// owned columns). When `summary` is not null, it also stores every
/// value column's SUMM values there, in SUMM order.
template <typename Sink>
void walk_columns(const profile::Trial& trial, double* summary, Sink&& sink) {
  const std::size_t events = trial.event_count();
  if (events == 0) return;
  const std::size_t threads = trial.thread_count();
  const std::size_t stride = trial.row_stride();
  const std::size_t value_columns = 2 * trial.metric_count();
  std::vector<double> swapped;  // big-endian hosts only
  ColumnSummarizer summarizer(summary != nullptr ? events : 0);
  for (std::size_t c = 0; c < trial.column_count(); ++c) {
    const double* column = trial.column(c);
    const bool summarize = summary != nullptr && c < value_columns;
    for (std::size_t t0 = 0; t0 < threads; t0 += ColumnSummarizer::kBlock) {
      const std::size_t n = std::min(ColumnSummarizer::kBlock, threads - t0);
      const double* rows[ColumnSummarizer::kBlock] = {};
      for (std::size_t k = 0; k < n; ++k) {
        rows[k] = column + (t0 + k) * stride;
        const double* row = rows[k];
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
      if (summarize) summarizer.add_rows(rows, n, t0 == 0);
    }
    if (summarize) {
      summarizer.finish(column, threads, stride,
                        summary + c * events * kSummaryFields);
    }
  }
}

// Counted so tests can check that each section is checksummed once per
// read, however many readers share the trial.
telemetry::Counter& summaries_checked() {
  static telemetry::Counter& c =
      telemetry::counter("perfdmf.snapshot.summary_checked");
  return c;
}
telemetry::Counter& columns_checked() {
  static telemetry::Counter& c =
      telemetry::counter("perfdmf.snapshot.columns_checked");
  return c;
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

  /// True when the next four bytes are `tag`, as a section header
  /// starts.
  [[nodiscard]] bool at_tag(std::string_view tag) const {
    return pos <= data.size() && data.size() - pos >= tag.size() &&
           data.compare(pos, tag.size(), tag) == 0;
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
/// declares and the absolute offsets of the COLS payload and of the SUMM
/// payload (0 when the image has no SUMM section).
struct PkbLayout {
  std::size_t threads = 0;
  std::size_t cols_offset = 0;
  std::size_t summary_offset = 0;
};

/// Parses and validates a PKB image — magic, version, section structure,
/// schema sanity against perfdmf/limits.hpp, and the SCHM, META and SUMM
/// checksums — into `trial`'s name, metadata, metrics and events (a
/// default-constructed trial, so no cells are allocated). The
/// (potentially huge) COLS payload's CRC is left to check_columns —
/// structure and bounds are still fully validated — so opening a large
/// snapshot stays O(schema + events x metrics), not O(cube).
PkbLayout parse_pkb_layout(std::string_view bytes, profile::Trial& trial) {
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
    // Every event takes at least 16 schema bytes, so a count the section
    // cannot hold reserves no more than the bytes allow.
    constexpr std::size_t kMinEventBytes = 4 + 8 + 4;
    trial.reserve_events(std::min<std::size_t>(
        event_count, (schm_end - sc.pos) / kMinEventBytes));
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

  // SUMM, optional: snapshots written before it existed go from META
  // straight to COLS.
  if (cur.at_tag("SUMM")) {
    const Section summ = read_section(cur, /*verify_crc=*/true);
    summaries_checked().add();
    const std::size_t expected = summary_values(trial) * sizeof(double);
    if (summ.payload_len != expected) {
      cur.pos = summ.payload_off - 16;
      cur.fail("summary section is " + std::to_string(summ.payload_len) +
               " bytes, schema requires " + std::to_string(expected));
    }
    layout.summary_offset = summ.payload_off;
    cur.pos = summ.payload_off + summ.payload_len;  // a multiple of 8
  }

  // COLS
  const Section cols = read_section(cur, /*verify_crc=*/false);
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
  return Image::share(std::make_shared<const Image>(
      read_file_bytes(file, "cannot open PKB snapshot")));
}

/// Checks the COLS payload against its checksum and, when the image has
/// a SUMM section, every summary value against the one the columns give.
/// `trial` holds the image's schema and its cells (borrowed, or decoded
/// on big-endian hosts). One row-wise walk computes both, so a summary
/// costs this check little more than the CRC. The checksum is judged
/// first: a damaged column byte reads as a bad checksum, not as a
/// disagreeing summary.
void check_columns(const profile::Trial& trial, std::string_view bytes,
                   const PkbLayout& layout) {
  static const telemetry::SpanSite site("perfdmf.verify_columns");
  telemetry::ScopedSpan span(site);
  columns_checked().add();
  Cursor cur{bytes, layout.cols_offset - 16};
  const Section cols = read_section(cur, /*verify_crc=*/false);
  expect_tag(cur, cols, kTagColumns);
  std::vector<double> want(layout.summary_offset != 0 ? summary_values(trial)
                                                      : 0);
  std::uint32_t crc = 0;
  walk_columns(trial, want.empty() ? nullptr : want.data(),
               [&](const char* p, std::size_t n) { crc = crc32(p, n, crc); });
  if (crc != cols.crc) {
    cur.pos = layout.cols_offset - 16;
    cur.fail("bad section checksum in 'COLS'");
  }
  // Identical bytes (a little-endian host and no NaN payload mismatch)
  // need no value-by-value walk.
  if (kHostLittle && !want.empty() &&
      std::memcmp(want.data(), bytes.data() + layout.summary_offset,
                  want.size() * sizeof(double)) == 0) {
    return;
  }
  const std::size_t events = trial.event_count();
  for (std::size_t i = 0; i < want.size(); ++i) {
    const std::size_t at = layout.summary_offset + i * sizeof(double);
    cur.pos = at;
    const double got = std::bit_cast<double>(cur.read_u64("summary value"));
    if (std::bit_cast<std::uint64_t>(got) ==
            std::bit_cast<std::uint64_t>(want[i]) ||
        (std::isnan(got) && std::isnan(want[i]))) {
      continue;
    }
    cur.pos = at;
    const std::size_t column = i / (events * kSummaryFields);
    const std::size_t event = i / kSummaryFields % events;
    std::string what =
        "summary disagrees with the value columns: " +
        std::string(column % 2 == 0 ? "inclusive " : "exclusive ") +
        trial.metric(static_cast<profile::MetricId>(column / 2)).name +
        " of event '" +
        trial.event(static_cast<profile::EventId>(event)).name + "' has " +
        kSummaryFieldNames[i % kSummaryFields] + " ";
    strings::append_g17(what, got);
    what += ", the columns give ";
    strings::append_g17(what, want[i]);
    cur.fail(what);
  }
}

/// The layout of the image a trial borrows its columns and summary from.
PkbLayout borrowed_layout(const profile::Trial& trial) {
  const char* base = trial.image()->data();
  const auto offset = [base](const double* p) {
    return static_cast<std::size_t>(reinterpret_cast<const char*>(p) - base);
  };
  return {trial.thread_count(), offset(trial.column(0)),
          offset(trial.borrowed_summary())};
}

/// Builds the trial an image holds. On little-endian hosts its columns
/// (and summary) point into the image; elsewhere they are decoded into
/// owned storage, which needs every checksum verified first.
profile::Trial trial_from_image(
    std::shared_ptr<const std::string_view> image) {
  const std::string_view bytes = *image;
  profile::Trial trial;
  const PkbLayout layout = parse_pkb_layout(bytes, trial);
  const char* cols = bytes.data() + layout.cols_offset;
  if constexpr (kHostLittle) {
    // Images start 8-byte aligned (mmap'd pages, heap strings) and the
    // format aligns every section payload, so the reinterpret is safe.
    const auto* summary =
        layout.summary_offset == 0
            ? nullptr
            : reinterpret_cast<const double*>(bytes.data() +
                                              layout.summary_offset);
    trial.borrow_columns(std::move(image),
                         reinterpret_cast<const double*>(cols),
                         layout.threads, summary);
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
  // Without SUMM, the aggregates an opened trial serves are the cells.
  if (!kHostLittle || layout.summary_offset == 0) {
    check_columns(trial, bytes, layout);
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

  // SUMM and COLS. A trial still borrowing an image with a summary holds
  // both sections unchanged (value and schema edits copy the columns
  // first), so they are copied back verbatim, stored CRCs included: the
  // bytes equal what the row walk below writes for a valid image, and a
  // corrupt image stays detectably corrupt.
  if (kHostLittle && trial.image() && trial.borrowed_summary() != nullptr) {
    const PkbLayout layout = borrowed_layout(trial);
    const std::size_t begin = layout.summary_offset - 16;
    const std::size_t end = layout.cols_offset + trial.column_count() *
                                                     trial.thread_count() *
                                                     trial.event_count() *
                                                     sizeof(double);
    os.write(trial.image()->data() + begin,
             static_cast<std::streamsize>(end - begin));
    write_section(os, kTagEnd, {});
    return;
  }
  // Otherwise both come from the trial's column rows: pass 1 computes
  // the summary and the COLS CRC (the header precedes the payload),
  // pass 2 writes the rows.
  const std::size_t values = summary_values(trial);
  std::vector<double> computed(trial.borrowed_summary() ? 0 : values);
  std::uint32_t crc = 0;
  walk_columns(trial, computed.empty() ? nullptr : computed.data(),
               [&](const char* p, std::size_t n) { crc = crc32(p, n, crc); });
  if constexpr (!kHostLittle) {
    for (double& v : computed) {
      v = std::bit_cast<double>(bswap64(std::bit_cast<std::uint64_t>(v)));
    }
  }
  const double* summary =
      computed.empty() ? trial.borrowed_summary() : computed.data();
  write_section(os, kTagSummary,
                {reinterpret_cast<const char*>(summary),
                 values * sizeof(double)});

  const std::uint64_t cols_len = trial.column_count() * trial.thread_count() *
                                 trial.event_count() * sizeof(double);
  write_section_header(os, kTagColumns, crc, cols_len);
  walk_columns(trial, nullptr, [&](const char* p, std::size_t n) {
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


profile::Trial open_pkb(const std::filesystem::path& file) {
  try {
    return trial_from_image(map_file(file));
  } catch (const ParseError& e) {
    if (e.file().empty()) throw e.with_file(file.string());
    throw;
  }
}

profile::Trial parse_pkb(std::string bytes) {
  profile::Trial trial = trial_from_image(
      Image::share(std::make_shared<const Image>(std::move(bytes))));
  verify_pkb_columns(trial);
  return trial;
}

void verify_pkb_columns(const profile::Trial& trial) {
  // Owned columns, and a snapshot without SUMM, were checked on open.
  if (!trial.image() || trial.borrowed_summary() == nullptr) return;
  check_columns(trial, *trial.image(), borrowed_layout(trial));
}

}  // namespace perfknow::perfdmf
