#include "io/format.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>

#include "common/error.hpp"
#include "io/bench_json.hpp"
#include "perfdmf/csv_format.hpp"
#include "perfdmf/json_format.hpp"
#include "perfdmf/pkb_format.hpp"
#include "perfdmf/snapshot.hpp"
#include "perfdmf/tau_format.hpp"
#include "telemetry/telemetry.hpp"

namespace perfknow::io {

namespace {

// ---- file-level plumbing over the per-format stream primitives ---------
//
// Each format module exposes stream/string readers and writers only; the
// registry owns opening files and attaching the file name to ParseError
// diagnostics, so the policy lives in exactly one place.

profile::Trial read_file(const std::filesystem::path& path, bool binary,
                         profile::Trial (*parse)(std::istream&)) {
  std::ifstream is(path, binary ? std::ios::binary : std::ios::in);
  if (!is) {
    throw IoError("cannot open for reading: " + path.string());
  }
  try {
    return parse(is);
  } catch (const ParseError& e) {
    if (e.file().empty()) throw e.with_file(path.string());
    throw;
  }
}

void write_file(const profile::Trial& trial,
                const std::filesystem::path& path, bool binary,
                void (*write)(const profile::Trial&, std::ostream&)) {
  std::ofstream os(path, binary ? std::ios::binary : std::ios::out);
  if (!os) {
    throw IoError("cannot open for writing: " + path.string());
  }
  write(trial, os);
  if (!os) {
    throw IoError("write failed: " + path.string());
  }
}

// How many leading bytes the content sniffers get to look at. Plenty for
// every magic/header line we match.
constexpr std::size_t kHeadBytes = 512;

std::string first_line(std::string_view head) {
  const auto nl = head.find('\n');
  return std::string(nl == std::string_view::npos ? head
                                                  : head.substr(0, nl));
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

// ---- per-format hooks --------------------------------------------------

bool pkb_can_read(std::string_view head, const std::filesystem::path&) {
  return head.substr(0, 4) == perfdmf::kPkbMagic;
}
profile::Trial pkb_read(const std::filesystem::path& path) {
  // Read whole (ParseError offsets are absolute) into an exactly sized
  // buffer the trial's columns then point into. Not mapped: a caller may
  // save over the file it opened.
  return read_file(path, /*binary=*/true, +[](std::istream& is) {
    is.seekg(0, std::ios::end);
    const std::streamoff size = is.tellg();
    if (size < 0) throw ParseError("PKB: cannot determine the file size");
    std::string bytes(static_cast<std::size_t>(size), '\0');
    is.seekg(0);
    is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return perfdmf::parse_pkb(std::move(bytes));
  });
}
void pkb_write(const profile::Trial& trial,
               const std::filesystem::path& path) {
  write_file(trial, path, /*binary=*/true, perfdmf::write_pkb);
}

bool pkprof_can_read(std::string_view head, const std::filesystem::path&) {
  return head.substr(0, 7) == "PKPROF\t";
}
profile::Trial pkprof_read(const std::filesystem::path& path) {
  return read_file(path, /*binary=*/false, perfdmf::read_snapshot);
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
profile::Trial benchjson_read(const std::filesystem::path& path) {
  return trial_from_benchmark_files({path}, path.stem().string());
}

bool json_can_read(std::string_view head, const std::filesystem::path&) {
  for (const char c : head) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) continue;
    return c == '{';
  }
  return false;
}
profile::Trial json_read(const std::filesystem::path& path) {
  return read_file(path, /*binary=*/false, perfdmf::read_json);
}
void json_write(const profile::Trial& trial,
                const std::filesystem::path& path) {
  write_file(trial, path, /*binary=*/false, perfdmf::write_json);
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

bool tau_can_read(std::string_view head, const std::filesystem::path& path) {
  if (std::filesystem::is_directory(path)) {
    return tau_profile_directory(path);
  }
  if (first_line(head).find("templated_functions") != std::string::npos) {
    return true;
  }
  return tau_profile_filename(path);
}
profile::Trial tau_read(const std::filesystem::path& path) {
  if (std::filesystem::is_directory(path)) {
    return perfdmf::read_tau_profiles(path);
  }
  std::ifstream is(path);
  if (!is) {
    throw IoError("cannot open for reading: " + path.string());
  }
  try {
    return perfdmf::read_tau_stream(is, path.filename().string());
  } catch (const ParseError& e) {
    if (e.file().empty()) throw e.with_file(path.string());
    throw;
  }
}

bool csv_can_read(std::string_view head, const std::filesystem::path&) {
  // The long-format header row: all three leading column names present
  // on the first line, comma-separated.
  const std::string line = first_line(head);
  return line.find("event") != std::string::npos &&
         line.find("thread") != std::string::npos &&
         line.find("metric") != std::string::npos &&
         std::count(line.begin(), line.end(), ',') >= 2;
}
profile::Trial csv_read(const std::filesystem::path& path) {
  auto trial = read_file(path, /*binary=*/false, perfdmf::read_csv_long);
  trial.set_name(path.stem().string());
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

// Times one format hook under a per-format span ("io.read.pkb",
// "io.write.json", ...) so telemetry attributes parse cost by format.
profile::Trial timed_read(const Format& f,
                          const std::filesystem::path& file) {
  static telemetry::Counter& opened = telemetry::counter("io.trials_opened");
  telemetry::ScopedSpan span(std::string("io.read.") + f.name);
  auto trial = f.read(file);
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

std::string read_head(const std::filesystem::path& file) {
  if (std::filesystem::is_directory(file)) return {};
  std::ifstream is(file, std::ios::binary);
  if (!is) {
    throw IoError("cannot open for reading: " + file.string());
  }
  std::string head(kHeadBytes, '\0');
  is.read(head.data(), static_cast<std::streamsize>(head.size()));
  head.resize(static_cast<std::size_t>(is.gcount()));
  return head;
}

}  // namespace

const std::vector<Format>& formats() {
  // Detection order: unambiguous magics first, the lenient CSV sniff
  // last. The TAU sniff only matches its header line / filename shape.
  static const std::vector<Format> kFormats = {
      {"pkb", {".pkb"}, pkb_can_read, pkb_read, pkb_write},
      {"pkprof", {".pkprof"}, pkprof_can_read, pkprof_read, pkprof_write},
      // benchjson must sniff before the lenient trial-JSON match; it
      // claims no extension so .json files without the context marker
      // still fall through to the trial reader.
      {"benchjson", {}, benchjson_can_read, benchjson_read, nullptr},
      {"json", {".json"}, json_can_read, json_read, json_write},
      {"tau", {".tau"}, tau_can_read, tau_read, nullptr},
      {"csv", {".csv"}, csv_can_read, csv_read, csv_write},
  };
  return kFormats;
}

const Format* find_format(std::string_view name) {
  for (const Format& f : formats()) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

profile::Trial open_trial(const std::filesystem::path& file) {
  static const telemetry::SpanSite site("io.open_trial");
  telemetry::ScopedSpan span(site);
  const std::string head = read_head(file);
  for (const Format& f : formats()) {
    if (f.can_read(head, file)) return timed_read(f, file);
  }
  // No content match; fall back to the extension.
  const std::string ext = file.extension().string();
  if (!ext.empty()) {
    for (const Format& f : formats()) {
      for (const std::string& e : f.extensions) {
        if (e == ext) return timed_read(f, file);
      }
    }
  }
  throw ParseError("unrecognized profile format (known formats: " +
                   known_format_names() + ")")
      .with_file(file.string());
}

profile::Trial open_trial(const std::filesystem::path& file,
                          std::string_view format) {
  static const telemetry::SpanSite site("io.open_trial");
  telemetry::ScopedSpan span(site);
  const Format* f = find_format(format);
  if (f == nullptr) {
    throw InvalidArgumentError("unknown profile format '" +
                               std::string(format) + "' (known formats: " +
                               known_format_names() + ")");
  }
  return timed_read(*f, file);
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
  const Format* f = find_format(format);
  if (f == nullptr) {
    throw InvalidArgumentError("unknown profile format '" +
                               std::string(format) + "' (known formats: " +
                               known_format_names() + ")");
  }
  if (f->write == nullptr) {
    throw InvalidArgumentError("format '" + std::string(format) +
                               "' is not writable via io::save_trial");
  }
  timed_write(*f, trial, file);
}

}  // namespace perfknow::io
