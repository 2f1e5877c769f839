#include "profile/profile.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "telemetry/telemetry.hpp"

namespace perfknow::profile {

namespace {

// Event capacity of the first row allocation; it doubles from there.
constexpr std::size_t kMinStride = 8;

}  // namespace

std::optional<std::string> Trial::metadata(const std::string& key) const {
  const auto it = metadata_.find(key);
  if (it == metadata_.end()) return std::nullopt;
  return it->second;
}

void Trial::set_thread_count(std::size_t n) {
  if (n < num_threads_) {
    throw InvalidArgumentError("Trial: cannot shrink thread count");
  }
  if (n == num_threads_) return;
  own();
  for (auto& col : owned_) col.resize(n * stride_, 0.0);
  num_threads_ = n;
}

MetricId Trial::add_metric(std::string name, std::string units,
                           bool derived) {
  const auto id = static_cast<MetricId>(metrics_.size());
  if (const auto [it, added] = metric_index_.try_emplace(name, id); !added) {
    return it->second;
  }
  own();
  metrics_.push_back(Metric{std::move(name), std::move(units), derived});
  // The metric's two columns go before calls and subcalls.
  owned_.insert(owned_.begin() + 2 * id, 2,
                std::vector<double>(num_threads_ * stride_, 0.0));
  return id;
}

EventId Trial::add_event(std::string name, EventId parent,
                         std::string group) {
  const auto id = static_cast<EventId>(events_.size());
  const auto [it, added] = event_index_.try_emplace(name, id);
  if (!added) return it->second;
  if (parent != kNoEvent && parent >= events_.size()) {
    event_index_.erase(it);
    throw InvalidArgumentError("Trial::add_event: bad parent id");
  }
  own();
  if (events_.size() == stride_) {
    widen_rows(std::max(kMinStride, 2 * stride_));
  }
  events_.push_back(Event{std::move(name), parent, std::move(group)});
  return id;
}

void Trial::reserve_events(std::size_t n) {
  event_index_.reserve(n);
  if (n <= stride_) return;
  own();
  widen_rows(n);
}

void Trial::widen_rows(std::size_t stride) {
  // Counted so tests can check that building a trial event by event
  // relays it out a logarithmic number of times, not once per event.
  static telemetry::Counter& relayouts =
      telemetry::counter("profile.trial.relayout");
  relayouts.add();
  for (auto& col : owned_) {
    std::vector<double> wide(num_threads_ * stride, 0.0);
    for (std::size_t t = 0; t < num_threads_; ++t) {
      std::copy_n(col.begin() + static_cast<std::ptrdiff_t>(t * stride_),
                  events_.size(),
                  wide.begin() + static_cast<std::ptrdiff_t>(t * stride));
    }
    col = std::move(wide);
  }
  stride_ = stride;
}

void Trial::borrow_columns(std::shared_ptr<const std::string_view> image,
                           const double* cols, std::size_t threads,
                           const double* summary) {
  owned_.clear();
  image_ = std::move(image);
  borrowed_ = cols;
  summary_ = summary;
  num_threads_ = threads;
  stride_ = events_.size();
}

void Trial::copy_into_owned() {
  const std::size_t cells = num_threads_ * stride_;
  std::vector<std::vector<double>> cols(column_count());
  for (std::size_t c = 0; c < cols.size(); ++c) {
    const double* src = column(c);
    cols[c].assign(src, src + cells);
  }
  owned_ = std::move(cols);
  image_.reset();
  borrowed_ = nullptr;
  summary_ = nullptr;
}

const Metric& Trial::metric(MetricId m) const {
  check_metric(m);
  return metrics_[m];
}

const Event& Trial::event(EventId e) const {
  check_event(e);
  return events_[e];
}

std::optional<MetricId> Trial::find_metric(std::string_view name) const {
  const auto it = metric_index_.find(name);
  if (it == metric_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<EventId> Trial::find_event(std::string_view name) const {
  const auto it = event_index_.find(name);
  if (it == event_index_.end()) return std::nullopt;
  return it->second;
}

MetricId Trial::metric_id(std::string_view name) const {
  if (const auto id = find_metric(name)) return *id;
  throw NotFoundError("Trial '" + name_ + "': no metric named '" +
                      std::string(name) + "'");
}

EventId Trial::event_id(std::string_view name) const {
  if (const auto id = find_event(name)) return *id;
  throw NotFoundError("Trial '" + name_ + "': no event named '" +
                      std::string(name) + "'");
}

bool Trial::is_nested_under(EventId e, EventId ancestor) const {
  check_event(e);
  check_event(ancestor);
  for (EventId cur = e; cur != kNoEvent; cur = events_[cur].parent) {
    if (cur == ancestor) return true;
  }
  return false;
}

EventId Trial::main_event() const {
  if (events_.empty()) {
    throw NotFoundError("Trial '" + name_ + "': no events");
  }
  if (const auto id = find_event("main")) return *id;
  if (const auto id = find_event(".TAU application")) return *id;
  if (metrics_.empty() || num_threads_ == 0) return 0;
  // Counted so tests can check that callers pay for this scan once per
  // trial, not once per event.
  static telemetry::Counter& scanned =
      telemetry::counter("profile.main_event.scanned");
  scanned.add(events_.size());
  EventId best = 0;
  double best_val = -1.0;
  for (EventId e = 0; e < events_.size(); ++e) {
    const double v = mean_inclusive(e, 0);
    if (v > best_val) {
      best_val = v;
      best = e;
    }
  }
  return best;
}

void Trial::check_thread(std::size_t thread) const {
  if (thread >= num_threads_) {
    throw InvalidArgumentError("Trial '" + name_ + "': thread " +
                               std::to_string(thread) + " out of range (" +
                               std::to_string(num_threads_) + " threads)");
  }
}

void Trial::check_event(EventId e) const {
  if (e >= events_.size()) {
    throw InvalidArgumentError("Trial '" + name_ + "': bad event id");
  }
}

void Trial::check_metric(MetricId m) const {
  if (m >= metrics_.size()) {
    throw InvalidArgumentError("Trial '" + name_ + "': bad metric id");
  }
}

void Trial::set_inclusive(std::size_t thread, EventId e, MetricId m,
                          double v) {
  const std::size_t i = cell(thread, e);
  check_metric(m);
  own();
  owned_[2 * m][i] = v;
}

void Trial::set_exclusive(std::size_t thread, EventId e, MetricId m,
                          double v) {
  const std::size_t i = cell(thread, e);
  check_metric(m);
  own();
  owned_[2 * m + 1][i] = v;
}

void Trial::accumulate_inclusive(std::size_t thread, EventId e, MetricId m,
                                 double v) {
  const std::size_t i = cell(thread, e);
  check_metric(m);
  own();
  owned_[2 * m][i] += v;
}

void Trial::accumulate_exclusive(std::size_t thread, EventId e, MetricId m,
                                 double v) {
  const std::size_t i = cell(thread, e);
  check_metric(m);
  own();
  owned_[2 * m + 1][i] += v;
}

void Trial::set_calls(std::size_t thread, EventId e, double calls,
                      double subcalls) {
  const std::size_t i = cell(thread, e);
  own();
  owned_[2 * metrics_.size()][i] = calls;
  owned_[2 * metrics_.size() + 1][i] = subcalls;
}

void Trial::accumulate_calls(std::size_t thread, EventId e, double calls,
                             double subcalls) {
  const std::size_t i = cell(thread, e);
  own();
  owned_[2 * metrics_.size()][i] += calls;
  owned_[2 * metrics_.size() + 1][i] += subcalls;
}

double Trial::inclusive(std::size_t thread, EventId e, MetricId m) const {
  const std::size_t i = cell(thread, e);
  check_metric(m);
  return column(2 * m)[i];
}

double Trial::exclusive(std::size_t thread, EventId e, MetricId m) const {
  const std::size_t i = cell(thread, e);
  check_metric(m);
  return column(2 * m + 1)[i];
}

CallInfo Trial::calls(std::size_t thread, EventId e) const {
  const std::size_t i = cell(thread, e);
  return {column(2 * metrics_.size())[i],
          column(2 * metrics_.size() + 1)[i]};
}

stats::StridedSpan Trial::inclusive_series(EventId e, MetricId m) const {
  check_event(e);
  check_metric(m);
  if (num_threads_ == 0) return {};
  // Fixed e across threads: a stride-row_stride() slice from index e.
  return {column(2 * m) + e, num_threads_, stride_};
}

stats::StridedSpan Trial::exclusive_series(EventId e, MetricId m) const {
  check_event(e);
  check_metric(m);
  if (num_threads_ == 0) return {};
  return {column(2 * m + 1) + e, num_threads_, stride_};
}

std::vector<double> Trial::inclusive_across_threads(EventId e,
                                                    MetricId m) const {
  return inclusive_series(e, m).to_vector();
}

std::vector<double> Trial::exclusive_across_threads(EventId e,
                                                    MetricId m) const {
  return exclusive_series(e, m).to_vector();
}

// The stored total divided by the thread count is stats::mean's own
// formula, so both paths return the same bits.
double Trial::mean_inclusive(EventId e, MetricId m) const {
  const auto xs = inclusive_series(e, m);
  if (xs.empty()) return 0.0;
  if (summary_) {
    return stored_summary(e, m, false)[0] / static_cast<double>(xs.size());
  }
  return stats::mean(xs);
}

double Trial::mean_exclusive(EventId e, MetricId m) const {
  const auto xs = exclusive_series(e, m);
  if (xs.empty()) return 0.0;
  if (summary_) {
    return stored_summary(e, m, true)[0] / static_cast<double>(xs.size());
  }
  return stats::mean(xs);
}

SeriesSummary Trial::series_summary(EventId e, MetricId m,
                                    bool exclusive) const {
  const auto xs = exclusive ? exclusive_series(e, m) : inclusive_series(e, m);
  if (xs.empty()) return {};
  if (summary_) {
    const double* s = stored_summary(e, m, exclusive);
    return {s[0], s[1], s[2], s[3]};
  }
  return {stats::sum(xs), stats::stddev(xs), stats::min(xs), stats::max(xs)};
}

}  // namespace perfknow::profile
