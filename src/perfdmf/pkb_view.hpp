// Mmap-backed lazy view over a PKB snapshot.
//
// PkbView implements the profile::TrialView read surface directly on top
// of the on-disk column layout: opening a snapshot parses only the
// schema/metadata sections (O(schema), not O(cube)), and every
// inclusive_series/exclusive_series call returns a strided span straight
// into the mapped COLS section — the value cube is never materialized
// and pages are faulted in by the kernel only as the analysis touches
// them. The view is read-only; materialize() builds an independent
// mutable profile::Trial from the snapshot (verifying every checksum on
// the way) for callers that need to edit it.
//
// The mapping is read-only and private; if mmap is unavailable (or the
// platform is not POSIX) the file is read into an owned buffer instead,
// with identical semantics. On big-endian hosts the COLS section is
// decoded into host order at open so the raw-pointer series contract
// still holds.
#pragma once

#include <filesystem>
#include <map>
#include <memory>
#include <string_view>

#include "perfdmf/pkb_format.hpp"
#include "profile/profile.hpp"
#include "profile/trial_view.hpp"

namespace perfknow::perfdmf {

class PkbView final : public profile::TrialView {
 public:
  /// How much of the file open() checks up front.
  enum class Verify {
    kSchema,  ///< structure + schema/metadata CRCs; COLS CRC skipped
    kFull,    ///< every section CRC, including the value columns
  };

  /// Maps `file` and parses its schema. Throws ParseError (with the file
  /// path attached) on malformed input, IoError when the file cannot be
  /// read.
  [[nodiscard]] static PkbView open(const std::filesystem::path& file,
                                    Verify verify = Verify::kSchema);

  /// Parses a PKB image already in memory; the bytes are copied.
  [[nodiscard]] static PkbView from_bytes(std::string_view bytes,
                                          Verify verify = Verify::kSchema);

  PkbView(PkbView&&) noexcept = default;
  PkbView& operator=(PkbView&&) noexcept = default;
  PkbView(const PkbView&) = delete;
  PkbView& operator=(const PkbView&) = delete;
  ~PkbView() override = default;

  // ---- TrialView -------------------------------------------------------
  [[nodiscard]] const std::string& name() const noexcept override {
    return layout_.trial_name;
  }
  [[nodiscard]] std::optional<std::string> metadata(
      const std::string& key) const override;
  [[nodiscard]] const std::map<std::string, std::string>& all_metadata()
      const noexcept override {
    return metadata_;
  }
  [[nodiscard]] std::size_t thread_count() const noexcept override {
    return layout_.threads;
  }
  [[nodiscard]] std::size_t event_count() const noexcept override {
    return layout_.events.size();
  }
  [[nodiscard]] std::size_t metric_count() const noexcept override {
    return layout_.metrics.size();
  }
  [[nodiscard]] const profile::Metric& metric(
      profile::MetricId m) const override;
  [[nodiscard]] const profile::Event& event(profile::EventId e) const override;
  [[nodiscard]] const std::vector<profile::Metric>& metrics()
      const noexcept override {
    return layout_.metrics;
  }
  [[nodiscard]] const std::vector<profile::Event>& events()
      const noexcept override {
    return layout_.events;
  }
  [[nodiscard]] std::optional<profile::MetricId> find_metric(
      std::string_view name) const override;
  [[nodiscard]] std::optional<profile::EventId> find_event(
      std::string_view name) const override;
  [[nodiscard]] double inclusive(std::size_t thread, profile::EventId e,
                                 profile::MetricId m) const override;
  [[nodiscard]] double exclusive(std::size_t thread, profile::EventId e,
                                 profile::MetricId m) const override;
  [[nodiscard]] profile::CallInfo calls(std::size_t thread,
                                        profile::EventId e) const override;
  [[nodiscard]] stats::StridedSpan inclusive_series(
      profile::EventId e, profile::MetricId m) const override;
  [[nodiscard]] stats::StridedSpan exclusive_series(
      profile::EventId e, profile::MetricId m) const override;

  /// Checks the COLS payload against its stored CRC, throwing ParseError
  /// (with the file path attached) on mismatch. Lets a view opened with
  /// Verify::kSchema be upgraded to full verification later — e.g. before
  /// its bytes are streamed back out and re-signed with fresh checksums.
  void verify_columns() const;

  // ---- materialization -------------------------------------------------
  /// An independent mutable copy of the snapshot. Every section checksum
  /// is verified on the way, so a view opened with Verify::kSchema cannot
  /// silently hand out corrupt columns. The view itself is unchanged, so
  /// readers on other threads are unaffected.
  [[nodiscard]] profile::Trial materialize() const;

  // ---- introspection ---------------------------------------------------
  /// Snapshot size in bytes (the mapped file / buffer size). The
  /// repository cache uses this as the entry's budget charge.
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return layout_.total_size;
  }
  /// Path the view was opened from; empty for from_bytes views.
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

 private:
  // Read-only mapping of the snapshot: mmap when possible, else an owned
  // heap buffer. Move-only; unmaps on destruction.
  class Mapping {
   public:
    Mapping() = default;
    explicit Mapping(std::string owned) : buffer_(std::move(owned)) {}
    Mapping(void* map_base, std::size_t map_len) noexcept
        : map_base_(map_base), map_len_(map_len) {}
    Mapping(Mapping&& other) noexcept { *this = std::move(other); }
    Mapping& operator=(Mapping&& other) noexcept;
    Mapping(const Mapping&) = delete;
    Mapping& operator=(const Mapping&) = delete;
    ~Mapping() { reset(); }

    [[nodiscard]] std::string_view bytes() const noexcept {
      if (map_base_ != nullptr) {
        return {static_cast<const char*>(map_base_), map_len_};
      }
      return buffer_;
    }

   private:
    void reset() noexcept;
    void* map_base_ = nullptr;
    std::size_t map_len_ = 0;
    std::string buffer_;
  };

  PkbView(Mapping mapping, Verify verify, std::filesystem::path path);

  [[nodiscard]] const double* column(std::size_t byte_off) const noexcept;
  void check_thread(std::size_t thread) const;
  void check_event(profile::EventId e) const;
  void check_metric(profile::MetricId m) const;

  // Held via unique_ptr so the view is cheap to move and span pointers
  // into the mapping survive moves.
  std::unique_ptr<Mapping> mapping_;
  std::filesystem::path path_;
  PkbLayout layout_;
  std::map<std::string, std::string> metadata_;
  std::map<std::string, profile::MetricId, std::less<>> metric_index_;
  std::map<std::string, profile::EventId, std::less<>> event_index_;
  // Host-order copy of the COLS section; populated only on big-endian
  // hosts, where raw mapped doubles would be byte-reversed.
  std::vector<double> decoded_;
};

}  // namespace perfknow::perfdmf
