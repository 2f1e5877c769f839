#include "perfdmf/pkb_view.hpp"

#include <bit>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/crc32.hpp"
#include "common/error.hpp"

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

std::string read_file_bytes(const std::filesystem::path& file) {
  std::ifstream is(file, std::ios::binary);
  if (!is) {
    throw IoError("cannot open PKB snapshot: " + file.string());
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  return std::move(ss).str();
}

}  // namespace

// ---- Mapping -----------------------------------------------------------

PkbView::Mapping& PkbView::Mapping::operator=(Mapping&& other) noexcept {
  if (this != &other) {
    reset();
    map_base_ = std::exchange(other.map_base_, nullptr);
    map_len_ = std::exchange(other.map_len_, 0);
    buffer_ = std::move(other.buffer_);
    other.buffer_.clear();
  }
  return *this;
}

void PkbView::Mapping::reset() noexcept {
#if PERFKNOW_HAVE_MMAP
  if (map_base_ != nullptr) ::munmap(map_base_, map_len_);
#endif
  map_base_ = nullptr;
  map_len_ = 0;
  buffer_.clear();
}

// ---- construction ------------------------------------------------------

PkbView::PkbView(Mapping mapping, Verify verify, std::filesystem::path path)
    : mapping_(std::make_unique<Mapping>(std::move(mapping))),
      path_(std::move(path)) {
  try {
    layout_ =
        parse_pkb_layout(mapping_->bytes(), verify == Verify::kFull);
  } catch (const ParseError& e) {
    if (!path_.empty()) throw e.with_file(path_.string());
    throw;
  }
  for (const auto& [key, value] : layout_.metadata) {
    metadata_.emplace(key, value);
  }
  for (profile::MetricId m = 0; m < layout_.metrics.size(); ++m) {
    metric_index_.emplace(layout_.metrics[m].name, m);
  }
  for (profile::EventId e = 0; e < layout_.events.size(); ++e) {
    event_index_.emplace(layout_.events[e].name, e);
  }
  if constexpr (!kHostLittle) {
    // Raw mapped doubles are byte-reversed on this host; decode the COLS
    // section once so the strided-span contract still holds.
    const char* cols = mapping_->bytes().data() + layout_.cols_offset;
    const std::size_t n =
        (2 * layout_.metrics.size() + 2) * layout_.cells();
    decoded_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      decoded_[i] = pkb_read_f64(cols + i * sizeof(double));
    }
  }
}

PkbView PkbView::open(const std::filesystem::path& file, Verify verify) {
#if PERFKNOW_HAVE_MMAP
  const int fd = ::open(file.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st{};
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
      const auto len = static_cast<std::size_t>(st.st_size);
      void* base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
      ::close(fd);
      if (base != MAP_FAILED) {
        return PkbView(Mapping(base, len), verify, file);
      }
    } else {
      ::close(fd);
    }
  }
  // Fall through to the buffered path on any failure; it produces the
  // proper IoError/ParseError diagnostics.
#endif
  return PkbView(Mapping(read_file_bytes(file)), verify, file);
}

PkbView PkbView::from_bytes(std::string_view bytes, Verify verify) {
  return PkbView(Mapping(std::string(bytes)), verify, {});
}

// ---- reads -------------------------------------------------------------

const double* PkbView::column(std::size_t byte_off) const noexcept {
  if constexpr (kHostLittle) {
    // The format guarantees 8-byte-aligned section payloads, so the
    // reinterpret is alignment-safe.
    return reinterpret_cast<const double*>(mapping_->bytes().data() +
                                           byte_off);
  } else {
    return decoded_.data() + (byte_off - layout_.cols_offset) / sizeof(double);
  }
}

void PkbView::check_thread(std::size_t thread) const {
  if (thread >= layout_.threads) {
    throw InvalidArgumentError(
        "Trial '" + layout_.trial_name + "': thread " +
        std::to_string(thread) + " out of range (" +
        std::to_string(layout_.threads) + " threads)");
  }
}

void PkbView::check_event(profile::EventId e) const {
  if (e >= layout_.events.size()) {
    throw InvalidArgumentError("Trial '" + layout_.trial_name +
                               "': bad event id");
  }
}

void PkbView::check_metric(profile::MetricId m) const {
  if (m >= layout_.metrics.size()) {
    throw InvalidArgumentError("Trial '" + layout_.trial_name +
                               "': bad metric id");
  }
}

std::optional<std::string> PkbView::metadata(const std::string& key) const {
  const auto it = metadata_.find(key);
  if (it == metadata_.end()) return std::nullopt;
  return it->second;
}

const profile::Metric& PkbView::metric(profile::MetricId m) const {
  check_metric(m);
  return layout_.metrics[m];
}

const profile::Event& PkbView::event(profile::EventId e) const {
  check_event(e);
  return layout_.events[e];
}

std::optional<profile::MetricId> PkbView::find_metric(
    std::string_view name) const {
  const auto it = metric_index_.find(name);
  if (it == metric_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<profile::EventId> PkbView::find_event(
    std::string_view name) const {
  const auto it = event_index_.find(name);
  if (it == event_index_.end()) return std::nullopt;
  return it->second;
}

double PkbView::inclusive(std::size_t thread, profile::EventId e,
                          profile::MetricId m) const {
  check_thread(thread);
  check_event(e);
  check_metric(m);
  return column(layout_.inclusive_column(m))[thread * event_count() + e];
}

double PkbView::exclusive(std::size_t thread, profile::EventId e,
                          profile::MetricId m) const {
  check_thread(thread);
  check_event(e);
  check_metric(m);
  return column(layout_.exclusive_column(m))[thread * event_count() + e];
}

profile::CallInfo PkbView::calls(std::size_t thread,
                                 profile::EventId e) const {
  check_thread(thread);
  check_event(e);
  const std::size_t cell = thread * event_count() + e;
  return {column(layout_.calls_column())[cell],
          column(layout_.subcalls_column())[cell]};
}

stats::StridedSpan PkbView::inclusive_series(profile::EventId e,
                                             profile::MetricId m) const {
  check_event(e);
  check_metric(m);
  if (layout_.threads == 0) return {};
  // Column layout is [thread][event]: fixed e across threads is a
  // stride-event_count() slice starting at index e.
  return {column(layout_.inclusive_column(m)) + e, layout_.threads,
          layout_.events.size()};
}

stats::StridedSpan PkbView::exclusive_series(profile::EventId e,
                                             profile::MetricId m) const {
  check_event(e);
  check_metric(m);
  if (layout_.threads == 0) return {};
  return {column(layout_.exclusive_column(m)) + e, layout_.threads,
          layout_.events.size()};
}

void PkbView::verify_columns() const {
  const std::string_view bytes = mapping_->bytes();
  const std::size_t len =
      (2 * layout_.metrics.size() + 2) * layout_.column_bytes();
  if (crc32(bytes.data() + layout_.cols_offset, len) != layout_.cols_crc) {
    const ParseError err("PKB: bad section checksum in 'COLS' (at byte offset " +
                         std::to_string(layout_.cols_offset - 16) + ")");
    if (!path_.empty()) throw err.with_file(path_.string());
    throw err;
  }
}

// ---- materialization -----------------------------------------------

profile::Trial PkbView::materialize() const {
  try {
    return parse_pkb(mapping_->bytes());
  } catch (const ParseError& e) {
    if (!path_.empty()) throw e.with_file(path_.string());
    throw;
  }
}

}  // namespace perfknow::perfdmf
