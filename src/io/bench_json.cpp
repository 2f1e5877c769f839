#include "io/bench_json.hpp"

#include <cmath>
#include <map>

#include "common/error.hpp"
#include "common/file.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "telemetry/telemetry.hpp"

namespace perfknow::io {

namespace {

double unit_to_usec(const std::string& unit) {
  if (unit == "ns") return 1e-3;
  if (unit == "us") return 1.0;
  if (unit == "ms") return 1e3;
  if (unit == "s") return 1e6;
  // Google Benchmark defaults to nanoseconds when no unit is given.
  if (unit.empty()) return 1e-3;
  throw ParseError("benchmark JSON: unknown time_unit '" + unit + "'");
}

double num_or(const json::Value* v, double fallback) {
  return v != nullptr && v->kind == json::Value::Kind::kNumber ? v->number
                                                               : fallback;
}

std::string text_or(const json::Value* v) {
  return v != nullptr && v->kind == json::Value::Kind::kString ? v->text
                                                               : "";
}

std::string number_text(double v) {
  if (std::floor(v) == v && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  return strings::format_double(v, 4);
}

/// One benchmark's min-merged measurements, in microseconds.
struct Sample {
  double real_usec = 0.0;
  double cpu_usec = 0.0;
  double iterations = 0.0;
  bool seen = false;
};

void merge_document(const std::string& text,
                    std::map<std::string, Sample>& samples,
                    std::map<std::string, std::string>& metadata) {
  const json::Value root = json::parse(text);
  if (root.kind != json::Value::Kind::kObject) {
    throw ParseError("benchmark JSON: document is not an object");
  }
  const json::Value* benchmarks = root.find("benchmarks");
  if (benchmarks == nullptr ||
      benchmarks->kind != json::Value::Kind::kArray) {
    throw ParseError("benchmark JSON: missing 'benchmarks' array");
  }
  // The first document's context block wins (repetition files of one
  // suite share their host context anyway).
  if (const json::Value* ctx = root.find("context");
      ctx != nullptr && ctx->kind == json::Value::Kind::kObject &&
      metadata.empty()) {
    for (const auto& [key, value] : ctx->members) {
      switch (value.kind) {
        case json::Value::Kind::kString:
          metadata["bench." + key] = value.text;
          break;
        case json::Value::Kind::kNumber:
          metadata["bench." + key] = number_text(value.number);
          break;
        case json::Value::Kind::kBool:
          metadata["bench." + key] = value.boolean ? "true" : "false";
          break;
        default:
          break;  // nested blocks (caches) are not interesting metadata
      }
    }
  }
  for (const auto& row : benchmarks->items) {
    if (row.kind != json::Value::Kind::kObject) continue;
    // Only per-repetition measurement rows; mean/median/stddev aggregate
    // rows would double-count.
    const std::string run_type = text_or(row.find("run_type"));
    if (!run_type.empty() && run_type != "iteration") continue;
    const std::string name = text_or(row.find("name"));
    if (name.empty()) {
      throw ParseError("benchmark JSON: benchmark row without a name");
    }
    const double scale = unit_to_usec(text_or(row.find("time_unit")));
    const double real = num_or(row.find("real_time"), 0.0) * scale;
    const double cpu = num_or(row.find("cpu_time"), 0.0) * scale;
    const double iters = num_or(row.find("iterations"), 0.0);
    Sample& s = samples[name];
    if (!s.seen || real < s.real_usec) s.real_usec = real;
    if (!s.seen || cpu < s.cpu_usec) s.cpu_usec = cpu;
    if (!s.seen || iters > s.iterations) s.iterations = iters;
    s.seen = true;
  }
}

profile::Trial trial_from_samples(
    const std::string& name, const std::map<std::string, Sample>& samples,
    const std::map<std::string, std::string>& metadata) {
  profile::Trial trial(name);
  trial.set_thread_count(1);
  const auto time = trial.add_metric("TIME", "usec");
  const auto cpu = trial.add_metric("CPU_TIME", "usec");
  // A synthetic root makes main_event()/runtime_fraction work: its
  // inclusive TIME is the whole suite, so each benchmark's runtime
  // fraction is its share of total suite time.
  const auto root = trial.add_event("main");
  double total_real = 0.0;
  double total_cpu = 0.0;
  for (const auto& [bench_name, sample] : samples) {
    const auto e = trial.add_event(bench_name, root);
    trial.set_inclusive(0, e, time, sample.real_usec);
    trial.set_exclusive(0, e, time, sample.real_usec);
    trial.set_inclusive(0, e, cpu, sample.cpu_usec);
    trial.set_exclusive(0, e, cpu, sample.cpu_usec);
    trial.set_calls(0, e, sample.iterations, 0.0);
    total_real += sample.real_usec;
    total_cpu += sample.cpu_usec;
  }
  trial.set_inclusive(0, root, time, total_real);
  trial.set_inclusive(0, root, cpu, total_cpu);
  trial.set_calls(0, root, 1.0, static_cast<double>(samples.size()));
  for (const auto& [key, value] : metadata) {
    trial.set_metadata(key, value);
  }
  trial.set_metadata("bench.benchmarks", std::to_string(samples.size()));
  return trial;
}

}  // namespace

profile::Trial trial_from_benchmark_json(const std::string& text,
                                         const std::string& name) {
  std::map<std::string, Sample> samples;
  std::map<std::string, std::string> metadata;
  merge_document(text, samples, metadata);
  return trial_from_samples(name, samples, metadata);
}

profile::Trial trial_from_benchmark_files(
    const std::vector<std::filesystem::path>& files,
    const std::string& name) {
  static const telemetry::SpanSite site("io.read.benchjson");
  telemetry::ScopedSpan span(site);
  if (files.empty()) {
    throw InvalidArgumentError(
        "trial_from_benchmark_files: no input files");
  }
  std::map<std::string, Sample> samples;
  std::map<std::string, std::string> metadata;
  for (const auto& file : files) {
    const std::string text = read_file_bytes(file);
    try {
      merge_document(text, samples, metadata);
    } catch (const ParseError& e) {
      if (e.file().empty()) throw e.with_file(file.string());
      throw;
    }
  }
  return trial_from_samples(name, samples, metadata);
}

}  // namespace perfknow::io
