// Parallel profile data model.
//
// Mirrors the TAU profile structure that PerfDMF manages: a Trial holds,
// for every thread of execution, for every instrumented code region
// ("event", possibly a callpath like "main => loop"), for every measured
// metric (TIME, CPU_CYCLES, ...), an inclusive value, an exclusive value,
// and call counts. Trials also carry free-form metadata ("performance
// context") which inference rules may consult to justify conclusions.
//
// Trial is the one trial type, and it stores its values exactly as the
// COLS section of a PKB snapshot does (perfdmf/pkb_format.hpp): one f64
// column per (metric, inclusive/exclusive), then a calls column and a
// subcalls column, each indexed [thread][event]. Rows are row_stride()
// doubles apart; the stride is the event capacity, which grows
// geometrically. So add_event costs amortized O(threads x metrics),
// add_metric appends two columns, and set_thread_count appends rows, in
// whatever order a reader discovers the schema.
//
// The columns are either owned vectors or borrowed from an immutable
// byte image the trial keeps alive: an mmap'd PKB snapshot
// (perfdmf::open_pkb) or the bytes handed to perfdmf::parse_pkb. Copying
// a borrowing trial costs O(schema). The first value or schema mutator
// copies the columns into owned storage; metadata and name edits do not.
// An image may also carry the trial's summary profile (the PKB SUMM
// section): per (event, metric) the total, stddev, min and max over
// threads. While the trial borrows such an image, the means and
// series_summary() read it instead of the cells; they return the same
// bits either way, and owning the columns drops the summary with the
// image.
//
// Thread safety: concurrent const reads are safe. A mutator must not run
// concurrently with anything else on the same trial, except set_* /
// accumulate_* calls on disjoint cells of a trial that already owns its
// columns (add_metric, say, has run).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"

namespace perfknow::profile {

using EventId = std::uint32_t;
using MetricId = std::uint32_t;
constexpr EventId kNoEvent = static_cast<EventId>(-1);

/// A measured or derived metric column.
struct Metric {
  std::string name;   ///< e.g. "TIME", "CPU_CYCLES", "BACK_END_BUBBLE_ALL"
  std::string units;  ///< e.g. "usec", "count"
  bool derived = false;  ///< true when produced by DeriveMetricOperation
};

/// An instrumented code region. Callpath membership is expressed through
/// `parent`: a top-level event has parent == kNoEvent.
struct Event {
  std::string name;            ///< e.g. "bicgstab", "main => outer_loop"
  EventId parent = kNoEvent;   ///< enclosing event in the callgraph
  std::string group;           ///< e.g. "LOOP", "MPI", "OPENMP", "PROC"
};

/// Per-(thread,event) call counters.
struct CallInfo {
  double calls = 0.0;
  double subcalls = 0.0;
};

/// One (event, metric) series reduced over threads, as stats:: computes
/// it: the Kahan total, the population stddev, the min and the max.
/// All zero for a trial without threads.
struct SeriesSummary {
  double total = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// A single experiment run: the full (thread x event x metric) values.
///
/// Threads are a flattened node/context/thread index, as PerfDMF flattens
/// them. Values default to 0; instrumentation accumulates into them.
class Trial {
 public:
  Trial() = default;
  explicit Trial(std::string name) : name_(std::move(name)) {}

  // ---- identity & metadata -------------------------------------------
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  void set_metadata(const std::string& key, std::string value) {
    metadata_[key] = std::move(value);
  }
  [[nodiscard]] std::optional<std::string> metadata(
      const std::string& key) const;
  [[nodiscard]] const std::map<std::string, std::string>& all_metadata()
      const noexcept {
    return metadata_;
  }

  // ---- shape ----------------------------------------------------------
  /// Sets the thread count. Must be called before set/accumulate; growing
  /// later is allowed, shrinking is not.
  void set_thread_count(std::size_t n);
  [[nodiscard]] std::size_t thread_count() const noexcept {
    return num_threads_;
  }
  [[nodiscard]] std::size_t event_count() const noexcept {
    return events_.size();
  }
  [[nodiscard]] std::size_t metric_count() const noexcept {
    return metrics_.size();
  }

  // ---- schema ---------------------------------------------------------
  /// Adds a metric (idempotent per name); returns its id.
  MetricId add_metric(std::string name, std::string units = "count",
                      bool derived = false);
  /// Adds an event (idempotent per name); returns its id.
  EventId add_event(std::string name, EventId parent = kNoEvent,
                    std::string group = "");
  /// Sizes every row and the name index for `n` events, so a reader that
  /// knows its event count up front adds them without re-laying-out the
  /// columns or rehashing, and without the slack of geometric growth.
  void reserve_events(std::size_t n);

  [[nodiscard]] const Metric& metric(MetricId m) const;
  [[nodiscard]] const Event& event(EventId e) const;
  [[nodiscard]] std::optional<MetricId> find_metric(
      std::string_view name) const;
  [[nodiscard]] std::optional<EventId> find_event(
      std::string_view name) const;
  /// Like find_*, but throws NotFoundError with a helpful message.
  [[nodiscard]] MetricId metric_id(std::string_view name) const;
  [[nodiscard]] EventId event_id(std::string_view name) const;

  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }
  [[nodiscard]] const std::vector<Event>& events() const noexcept {
    return events_;
  }

  /// Direct children of `e` in the callgraph.
  [[nodiscard]] std::vector<EventId> children_of(EventId e) const;
  /// True when `ancestor` appears on `e`'s parent chain (or equals it).
  [[nodiscard]] bool is_nested_under(EventId e, EventId ancestor) const;
  /// The conventional top-level event. Prefers an event named "main" or
  /// ".TAU application"; otherwise the event with the largest mean
  /// inclusive value of metric 0. Throws NotFoundError on an empty trial.
  [[nodiscard]] EventId main_event() const;

  // ---- values ---------------------------------------------------------
  void set_inclusive(std::size_t thread, EventId e, MetricId m, double v);
  void set_exclusive(std::size_t thread, EventId e, MetricId m, double v);
  void accumulate_inclusive(std::size_t thread, EventId e, MetricId m,
                            double v);
  void accumulate_exclusive(std::size_t thread, EventId e, MetricId m,
                            double v);
  void set_calls(std::size_t thread, EventId e, double calls,
                 double subcalls);
  void accumulate_calls(std::size_t thread, EventId e, double calls,
                        double subcalls);

  [[nodiscard]] double inclusive(std::size_t thread, EventId e,
                                 MetricId m) const;
  [[nodiscard]] double exclusive(std::size_t thread, EventId e,
                                 MetricId m) const;
  [[nodiscard]] CallInfo calls(std::size_t thread, EventId e) const;

  /// Per-thread series for one (event, metric) — the unit the statistics
  /// operate on (e.g. load-balance CV across threads) — as a strided
  /// no-copy view into the column. Valid until the trial's next value or
  /// schema mutation.
  [[nodiscard]] stats::StridedSpan inclusive_series(EventId e,
                                                    MetricId m) const;
  [[nodiscard]] stats::StridedSpan exclusive_series(EventId e,
                                                    MetricId m) const;

  /// Owned copies of the series, for callers that keep them.
  [[nodiscard]] std::vector<double> inclusive_across_threads(
      EventId e, MetricId m) const;
  [[nodiscard]] std::vector<double> exclusive_across_threads(
      EventId e, MetricId m) const;

  /// Mean over threads for one (event, metric); 0 without threads.
  [[nodiscard]] double mean_inclusive(EventId e, MetricId m) const;
  [[nodiscard]] double mean_exclusive(EventId e, MetricId m) const;
  /// The across-thread summary of one series, read from the borrowed
  /// summary profile when there is one, else reduced from the cells.
  [[nodiscard]] SeriesSummary series_summary(EventId e, MetricId m,
                                             bool exclusive) const;

  // ---- column storage -------------------------------------------------
  /// Columns in PKB order: 2m and 2m+1 hold metric m's inclusive and
  /// exclusive values, then come the calls and subcalls columns.
  [[nodiscard]] std::size_t column_count() const noexcept {
    return 2 * metrics_.size() + 2;
  }
  /// Column `c`: thread t's row starts at column(c) + t * row_stride()
  /// and holds event_count() values. Valid until the next value or
  /// schema mutation.
  [[nodiscard]] const double* column(std::size_t c) const noexcept {
    return image_ ? borrowed_ + c * num_threads_ * stride_
                  : owned_[c].data();
  }
  [[nodiscard]] std::size_t row_stride() const noexcept { return stride_; }

  /// Points the columns into `image` instead of owned storage, for
  /// `threads` threads over the current schema: column c is the
  /// threads * event_count() host-order doubles at
  /// cols + c * threads * event_count(), which must lie inside *image
  /// and be 8-byte aligned. `summary`, when not null, is the image's
  /// summary profile: for each value column c < 2 * metric_count() and
  /// event e, the four host-order doubles of its SeriesSummary at
  /// summary + (c * event_count() + e) * 4. The trial keeps the image
  /// alive and never writes to it. Any values held before are dropped.
  void borrow_columns(std::shared_ptr<const std::string_view> image,
                      const double* cols, std::size_t threads,
                      const double* summary = nullptr);
  /// The image the columns are borrowed from; null once they are owned.
  [[nodiscard]] const std::shared_ptr<const std::string_view>& image()
      const noexcept {
    return image_;
  }
  /// The borrowed summary profile; null when the image has none or the
  /// columns are owned.
  [[nodiscard]] const double* borrowed_summary() const noexcept {
    return summary_;
  }

 private:
  void check_thread(std::size_t thread) const;
  void check_event(EventId e) const;
  void check_metric(MetricId m) const;
  /// The borrowed SeriesSummary of one series (summary_ must be set).
  [[nodiscard]] const double* stored_summary(EventId e, MetricId m,
                                             bool exclusive) const {
    return summary_ +
           ((2 * m + (exclusive ? 1 : 0)) * events_.size() + e) * 4;
  }
  [[nodiscard]] std::size_t cell(std::size_t thread, EventId e) const {
    check_thread(thread);
    check_event(e);
    return thread * stride_ + e;
  }
  /// Copies borrowed columns into owned storage; every value or schema
  /// mutator calls it first.
  void own() {
    if (image_) copy_into_owned();
  }
  void copy_into_owned();
  /// Re-lays-out every owned row at a wider stride.
  void widen_rows(std::size_t stride);

  std::string name_;
  std::map<std::string, std::string> metadata_;
  std::size_t num_threads_ = 0;
  std::vector<Metric> metrics_;
  std::vector<Event> events_;
  std::map<std::string, MetricId, std::less<>> metric_index_;
  /// Hashes event names for the string_view lookups of find_event.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  /// Event name -> id. Hashed, not ordered: callpath names share long
  /// "main => ..." prefixes that every ordered comparison would rescan,
  /// and nothing iterates the index.
  std::unordered_map<std::string, EventId, NameHash, std::equal_to<>>
      event_index_;
  /// Row length of every column: the event capacity.
  std::size_t stride_ = 0;
  /// Owned columns (column_count() of them, each threads * stride_);
  /// empty while the columns are borrowed.
  std::vector<std::vector<double>> owned_ =
      std::vector<std::vector<double>>(2);
  /// Borrowed columns: column 0 inside *image_, the rest following it.
  std::shared_ptr<const std::string_view> image_;
  const double* borrowed_ = nullptr;
  /// Borrowed summary profile inside *image_, or null.
  const double* summary_ = nullptr;
};

/// The older name of the read-only trial surface; the end-to-end
/// benchmark (perfbench/) still spells it.
using TrialView = Trial;

}  // namespace perfknow::profile
