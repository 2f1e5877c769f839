#include "telemetry/export.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>

#include "common/json.hpp"
#include "common/strings.hpp"

namespace perfknow::telemetry {

namespace {

const std::string& span_name(const Snapshot& snap, NameId id) {
  static const std::string kUnknown = "?";
  if (id < snap.names.size() && !snap.names[id].empty()) {
    return snap.names[id];
  }
  return kUnknown;
}

}  // namespace

void write_chrome_trace(const Snapshot& snap, std::ostream& os) {
  std::uint64_t t0 = std::numeric_limits<std::uint64_t>::max();
  for (const SpanRecord& r : snap.spans) t0 = std::min(t0, r.start_ns);
  if (snap.spans.empty()) t0 = 0;

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& r : snap.spans) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << json::escape(span_name(snap, r.name))
       << "\",\"cat\":\"perfknow\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << r.thread << ",\"ts\":"
       << strings::format_double(
              static_cast<double>(r.start_ns - t0) / 1000.0, 3)
       << ",\"dur\":"
       << strings::format_double(
              static_cast<double>(r.duration_ns) / 1000.0, 3)
       << "}";
  }
  for (const CounterSample& c : snap.counters) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << json::escape(c.name)
       << "\",\"cat\":\"perfknow\",\"ph\":\"C\",\"pid\":1,\"tid\":0,"
       << "\"ts\":0,\"args\":{\"value\":" << c.value << "}}";
  }
  os << "]}";
}

profile::Trial to_trial(const Snapshot& snap, const std::string& name) {
  profile::Trial trial(name);
  const std::size_t threads = std::max<std::uint32_t>(1, snap.thread_count);
  trial.set_thread_count(threads);

  // Metric 0 is TIME so main_event() and default-metric lookups pick it.
  const auto time_m = trial.add_metric("TIME", "usec");
  const auto root = trial.add_event("perfknow", profile::kNoEvent,
                                    "TELEMETRY");
  for (std::size_t th = 0; th < threads; ++th) {
    trial.set_calls(th, root, 1.0, 0.0);
  }

  for (const SpanRecord& r : snap.spans) {
    const auto e = trial.add_event(span_name(snap, r.name), root,
                                   "TELEMETRY");
    const double dur_us = static_cast<double>(r.duration_ns) / 1000.0;
    const double excl_us = static_cast<double>(r.exclusive_ns) / 1000.0;
    trial.accumulate_inclusive(r.thread, e, time_m, dur_us);
    trial.accumulate_exclusive(r.thread, e, time_m, excl_us);
    trial.accumulate_calls(r.thread, e, 1.0, 0.0);
    // Exclusive times partition each thread's instrumented wall time,
    // so their sum is the root's inclusive time without double
    // counting nested spans.
    trial.accumulate_inclusive(r.thread, root, time_m, excl_us);
  }

  for (const CounterSample& c : snap.counters) {
    const auto m = trial.add_metric(c.name, "count");
    const auto v = static_cast<double>(c.value);
    trial.set_inclusive(0, root, m, v);
    trial.set_exclusive(0, root, m, v);
  }
  for (const HistogramSample& h : snap.histograms) {
    const auto cm = trial.add_metric(h.name + ".count", "count");
    const auto c = static_cast<double>(h.count);
    trial.set_inclusive(0, root, cm, c);
    trial.set_exclusive(0, root, cm, c);
    const auto mm = trial.add_metric(h.name + ".mean", "count");
    const double mean =
        h.count == 0 ? 0.0 : static_cast<double>(h.sum) / c;
    trial.set_inclusive(0, root, mm, mean);
    trial.set_exclusive(0, root, mm, mean);
    const std::pair<const char*, double> quantiles[] = {
        {".p50", h.p50},
        {".p95", h.p95},
        {".max", static_cast<double>(h.max)},
    };
    for (const auto& [suffix, value] : quantiles) {
      const auto qm = trial.add_metric(h.name + suffix, "count");
      trial.set_inclusive(0, root, qm, value);
      trial.set_exclusive(0, root, qm, value);
    }
  }

  const auto dm = trial.add_metric("telemetry.dropped_spans", "count");
  const auto dropped = static_cast<double>(snap.dropped_spans);
  trial.set_inclusive(0, root, dm, dropped);
  trial.set_exclusive(0, root, dm, dropped);

  trial.set_metadata("perfknow.telemetry", "1");
  trial.set_metadata("telemetry.dropped_spans",
                     std::to_string(snap.dropped_spans));
  return trial;
}

}  // namespace perfknow::telemetry
