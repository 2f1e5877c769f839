#include "io/format.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/file.hpp"
#include "io/bench_json.hpp"
#include "perfdmf/csv_format.hpp"
#include "perfdmf/json_format.hpp"
#include "perfdmf/pkb_format.hpp"
#include "perfdmf/snapshot.hpp"
#include "perfdmf/tau_format.hpp"
#include "telemetry/telemetry.hpp"

namespace perfknow::io {

namespace {

// ---- plumbing over the per-format buffer primitives ----------------------
//
// Each format module exposes string/buffer readers and stream writers;
// the registry owns sniffing, naming and attaching the input's name to
// ParseError diagnostics, so the policy lives in exactly one place.

void write_file(const profile::Trial& trial,
                const std::filesystem::path& path, bool binary,
                void (*write)(const profile::Trial&, std::ostream&)) {
  std::ofstream os(path, binary ? std::ios::binary : std::ios::out);
  if (!os) {
    throw IoError("cannot open for writing: " + path.string());
  }
  try {
    write(trial, os);
    if (!os) {
      throw IoError("write failed: " + path.string());
    }
  } catch (...) {
    // A refused or failed write leaves no partial file behind.
    os.close();
    std::error_code ec;
    std::filesystem::remove(path, ec);
    throw;
  }
}

// How many leading bytes the content sniffers get to look at. Plenty for
// every magic/header line we match.
constexpr std::size_t kHeadBytes = 512;

std::string_view first_line(std::string_view head) {
  const auto nl = head.find('\n');
  return nl == std::string_view::npos ? head : head.substr(0, nl);
}

// True when the filename looks like TAU's per-thread "profile.N.C.T".
bool tau_profile_filename(const std::filesystem::path& path) {
  const std::string name = path.filename().string();
  if (name.rfind("profile.", 0) != 0) return false;
  std::size_t digits = 0;
  std::size_t dots = 0;
  for (std::size_t i = 8; i < name.size(); ++i) {
    if (name[i] == '.') {
      ++dots;
    } else if (std::isdigit(static_cast<unsigned char>(name[i])) != 0) {
      ++digits;
    } else {
      return false;
    }
  }
  return dots == 2 && digits >= 3;
}

// A directory is only claimed for TAU when it actually holds at least
// one profile.N.C.T file; otherwise an unrelated directory would be
// dispatched to the TAU reader and fail with a misleading TAU parse
// error instead of "unrecognized profile format".
bool tau_profile_directory(const std::filesystem::path& path) {
  std::error_code ec;
  for (std::filesystem::directory_iterator it(path, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (tau_profile_filename(it->path())) return true;
  }
  return false;
}

// ---- per-format hooks --------------------------------------------------

bool pkb_can_read(std::string_view head, const std::filesystem::path&) {
  return head.substr(0, 4) == perfdmf::kPkbMagic;
}
profile::Trial pkb_parse(std::string bytes, const std::filesystem::path&) {
  // The trial's columns point into the adopted buffer. (Files are read,
  // not mapped: a caller may save over the file it opened.)
  return perfdmf::parse_pkb(std::move(bytes));
}
void pkb_write(const profile::Trial& trial,
               const std::filesystem::path& path) {
  write_file(trial, path, /*binary=*/true, perfdmf::write_pkb);
}

bool pkprof_can_read(std::string_view head, const std::filesystem::path&) {
  return head.substr(0, 7) == "PKPROF\t";
}
profile::Trial pkprof_parse(std::string bytes,
                            const std::filesystem::path&) {
  std::istringstream is(std::move(bytes));
  return perfdmf::read_snapshot(is);
}
void pkprof_write(const profile::Trial& trial,
                  const std::filesystem::path& path) {
  write_file(trial, path, /*binary=*/false, perfdmf::write_snapshot);
}

// Google-Benchmark JSON: an object whose early keys include "context"
// and never "threads" (the trial-schema JSON always has "threads" as
// its second key, well inside the sniff window).
bool benchjson_can_read(std::string_view head,
                        const std::filesystem::path&) {
  for (const char c : head) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) continue;
    if (c != '{') return false;
    break;
  }
  return head.find("\"context\"") != std::string_view::npos &&
         head.find("\"threads\"") == std::string_view::npos;
}
profile::Trial benchjson_parse(std::string bytes,
                               const std::filesystem::path& name) {
  return trial_from_benchmark_json(bytes, name.stem().string());
}

bool json_can_read(std::string_view head, const std::filesystem::path&) {
  for (const char c : head) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) continue;
    return c == '{';
  }
  return false;
}
profile::Trial json_parse(std::string bytes, const std::filesystem::path&) {
  return perfdmf::from_json(bytes);
}
void json_write(const profile::Trial& trial,
                const std::filesystem::path& path) {
  write_file(trial, path, /*binary=*/false, perfdmf::write_json);
}

bool tau_can_read(std::string_view head, const std::filesystem::path& name) {
  if (first_line(head).find("templated_functions") !=
      std::string_view::npos) {
    return true;
  }
  return tau_profile_filename(name);
}
profile::Trial tau_parse(std::string bytes,
                         const std::filesystem::path& name) {
  return perfdmf::read_tau_stream(bytes, name.filename().string());
}

bool csv_can_read(std::string_view head, const std::filesystem::path&) {
  // The long-format header row: all three leading column names present
  // on the first line, comma-separated.
  const std::string_view line = first_line(head);
  return line.find("event") != std::string_view::npos &&
         line.find("thread") != std::string_view::npos &&
         line.find("metric") != std::string_view::npos &&
         std::count(line.begin(), line.end(), ',') >= 2;
}
profile::Trial csv_parse(std::string bytes,
                         const std::filesystem::path& name) {
  auto trial = perfdmf::read_csv_long(bytes);
  trial.set_name(name.stem().string());
  return trial;
}
void csv_write(const profile::Trial& trial,
               const std::filesystem::path& path) {
  write_file(trial, path, /*binary=*/false, perfdmf::write_csv_long);
}

std::string known_format_names() {
  std::string out;
  for (const Format& f : formats()) {
    if (!out.empty()) out += ", ";
    out += f.name;
  }
  return out;
}

std::string writable_format_names() {
  std::string out;
  for (const Format& f : formats()) {
    if (f.write == nullptr) continue;
    if (!out.empty()) out += ", ";
    out += f.name;
  }
  return out;
}

const Format& known_format(std::string_view format) {
  const Format* f = find_format(format);
  if (f == nullptr) {
    throw InvalidArgumentError("unknown profile format '" +
                               std::string(format) + "' (known formats: " +
                               known_format_names() + ")");
  }
  return *f;
}

// Detects the format of an input from its first bytes, with the
// extension of `name` as the tie-breaker.
const Format& detect(std::string_view bytes,
                     const std::filesystem::path& name) {
  const std::string_view head = bytes.substr(0, kHeadBytes);
  for (const Format& f : formats()) {
    if (f.can_read(head, name)) return f;
  }
  const std::string ext = name.extension().string();
  if (!ext.empty()) {
    for (const Format& f : formats()) {
      for (const std::string& e : f.extensions) {
        if (e == ext) return f;
      }
    }
  }
  throw ParseError("unrecognized profile format (known formats: " +
                   known_format_names() + ")")
      .with_file(name.string());
}

// Parses under a per-format span ("io.read.pkb", ...) so telemetry
// attributes parse cost by format; ParseErrors get `name` as their file.
profile::Trial timed_parse(const Format& f, std::string bytes,
                           const std::string& name) {
  static telemetry::Counter& opened = telemetry::counter("io.trials_opened");
  telemetry::ScopedSpan span(std::string("io.read.") + f.name);
  try {
    auto trial = f.parse(std::move(bytes), name);
    opened.add();
    return trial;
  } catch (const ParseError& e) {
    if (e.file().empty()) throw e.with_file(name);
    throw;
  }
}

// A directory is a TAU profile set, read file by file.
profile::Trial open_tau_directory(const std::filesystem::path& dir) {
  static telemetry::Counter& opened = telemetry::counter("io.trials_opened");
  telemetry::ScopedSpan span("io.read.tau");
  auto trial = perfdmf::read_tau_profiles(dir);
  opened.add();
  return trial;
}

void timed_write(const Format& f, const profile::Trial& trial,
                 const std::filesystem::path& file) {
  static telemetry::Counter& saved = telemetry::counter("io.trials_saved");
  telemetry::ScopedSpan span(std::string("io.write.") + f.name);
  f.write(trial, file);
  saved.add();
}

}  // namespace

const std::vector<Format>& formats() {
  // Detection order: unambiguous magics first, the lenient CSV sniff
  // last. The TAU sniff only matches its header line / filename shape.
  static const std::vector<Format> kFormats = {
      {"pkb", {".pkb"}, pkb_can_read, pkb_parse, pkb_write},
      {"pkprof", {".pkprof"}, pkprof_can_read, pkprof_parse, pkprof_write},
      // benchjson must sniff before the lenient trial-JSON match; it
      // claims no extension so .json files without the context marker
      // still fall through to the trial reader.
      {"benchjson", {}, benchjson_can_read, benchjson_parse, nullptr},
      {"json", {".json"}, json_can_read, json_parse, json_write},
      {"tau", {".tau"}, tau_can_read, tau_parse, nullptr},
      {"csv", {".csv"}, csv_can_read, csv_parse, csv_write},
  };
  return kFormats;
}

const Format* find_format(std::string_view name) {
  for (const Format& f : formats()) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

profile::Trial parse_trial(std::string bytes, std::string_view format,
                           const std::string& name) {
  static const telemetry::SpanSite site("io.open_trial");
  telemetry::ScopedSpan span(site);
  const Format& f = format.empty() ? detect(bytes, name)
                                   : known_format(format);
  return timed_parse(f, std::move(bytes), name);
}

profile::Trial open_trial(const std::filesystem::path& file) {
  static const telemetry::SpanSite site("io.open_trial");
  telemetry::ScopedSpan span(site);
  if (std::filesystem::is_directory(file)) {
    if (tau_profile_directory(file)) return open_tau_directory(file);
    throw ParseError("unrecognized profile format (known formats: " +
                     known_format_names() + ")")
        .with_file(file.string());
  }
  std::string bytes = read_file_bytes(file);
  const Format& f = detect(bytes, file);
  return timed_parse(f, std::move(bytes), file.string());
}

profile::Trial open_trial(const std::filesystem::path& file,
                          std::string_view format) {
  static const telemetry::SpanSite site("io.open_trial");
  telemetry::ScopedSpan span(site);
  const Format& f = known_format(format);
  if (f.name == "tau" && std::filesystem::is_directory(file)) {
    return open_tau_directory(file);
  }
  return timed_parse(f, read_file_bytes(file), file.string());
}

void save_trial(const profile::Trial& trial,
                const std::filesystem::path& file) {
  static const telemetry::SpanSite site("io.save_trial");
  telemetry::ScopedSpan span(site);
  const std::string ext = file.extension().string();
  for (const Format& f : formats()) {
    if (f.write == nullptr) continue;
    for (const std::string& e : f.extensions) {
      if (e == ext) {
        timed_write(f, trial, file);
        return;
      }
    }
  }
  throw InvalidArgumentError(
      "no writable format for extension '" + ext +
      "' (writable formats: " + writable_format_names() + ")");
}

void save_trial(const profile::Trial& trial,
                const std::filesystem::path& file, std::string_view format) {
  static const telemetry::SpanSite site("io.save_trial");
  telemetry::ScopedSpan span(site);
  const Format& f = known_format(format);
  if (f.write == nullptr) {
    throw InvalidArgumentError("format '" + std::string(format) +
                               "' is not writable via io::save_trial");
  }
  timed_write(f, trial, file);
}

}  // namespace perfknow::io
