// The profile text writers (JSON, long CSV, TAU, PKPROF and the wide
// to_csv export) spell every value through strings::append_g17 and hand
// their streams whole blocks. These tests pin that the bytes are those of
// the printf "%.17g" / ostream precision(17) rendering on adversarial
// cells, that what the readers read back is bit-identical, and that no
// stream or global locale reaches the output.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <locale>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/file.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "io/format.hpp"
#include "perfdmf/csv_format.hpp"
#include "perfdmf/json_format.hpp"
#include "perfdmf/snapshot.hpp"
#include "perfdmf/tau_format.hpp"
#include "profile/profile.hpp"

namespace pk = perfknow;
namespace fs = std::filesystem;
using pk::profile::Trial;

namespace {

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("perfknow_text_writers_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] const fs::path& path() const { return dir_; }

 private:
  fs::path dir_;
  static inline int counter_ = 0;
};

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Cells that stress the rendering: signed zeros, the subnormal and
/// normal extremes, the edges of exact integers, JSON's integer branch
/// around 1e15, values a decimal point or digit grouping would change,
/// and one that needs all 17 digits.
std::vector<double> finite_cells() {
  const double two53 = 9007199254740992.0;
  return {0.0,
          -0.0,
          5e-324,
          DBL_MIN,
          DBL_MAX,
          -DBL_MAX,
          two53 - 1,
          two53,
          two53 + 2,
          1e15,
          std::nextafter(1e15, 0.0),
          std::nextafter(1e15, kInf),
          -1e15,
          999999999999999.0,
          1e16,
          1e17,
          0.1,
          1.0 / 3.0,
          123456.789,
          1234567.0,
          -2.5e-7,
          42.0};
}

/// The finite cells plus NaN, -NaN and the infinities.
std::vector<double> all_cells() {
  std::vector<double> cells = finite_cells();
  for (const double v : {kNaN, -kNaN, kInf, -kInf}) cells.push_back(v);
  return cells;
}

/// 1002 events (event ids past 1000, which digit grouping would split)
/// x 3 threads x 2 metrics, the cells cycling through `cells`.
Trial adversarial(const std::vector<double>& cells) {
  Trial t("adversarial");
  t.set_metadata("source", "test");
  t.set_thread_count(3);
  t.add_metric("TIME", "usec");
  t.add_metric("PAPI_FP_OPS", "count");
  for (std::size_t e = 0; e < 1002; ++e) {
    t.add_event("f" + std::to_string(e), pk::profile::kNoEvent,
                e % 2 == 0 ? "" : "LOOP");
  }
  std::size_t k = 0;
  const auto next = [&] { return cells[k++ % cells.size()]; };
  for (std::size_t th = 0; th < t.thread_count(); ++th) {
    for (pk::profile::EventId e = 0; e < t.event_count(); ++e) {
      for (pk::profile::MetricId m = 0; m < t.metric_count(); ++m) {
        t.set_inclusive(th, e, m, next());
        t.set_exclusive(th, e, m, next());
      }
      const double calls = next();
      t.set_calls(th, e, calls, next());
    }
  }
  return t;
}

// ---- the reference renderer: printf "%.17g" and ostream precision(17),
// both in the classic locale, as the writers spelled values before
// strings::append_g17.

std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct RefStream : std::ostringstream {
  RefStream() {
    imbue(std::locale::classic());
    precision(17);
  }
};

long long parent_of(const Trial& t, pk::profile::EventId e) {
  const auto p = t.event(e).parent;
  return p == pk::profile::kNoEvent ? -1 : static_cast<long long>(p);
}

std::string ref_json(const Trial& t) {
  RefStream os;
  const auto number = [&](double v) {
    if (std::floor(v) == v && std::abs(v) < 1e15) {
      if (v == 0.0 && std::signbit(v)) os << '-';
      os << static_cast<long long>(v);
    } else {
      os << g17(v);
    }
  };
  os << "{\n  \"name\": " << pk::json::quote(t.name())
     << ",\n  \"threads\": " << t.thread_count() << ",\n  \"metadata\": {";
  bool first = true;
  for (const auto& [k, v] : t.all_metadata()) {
    os << (first ? "" : ", ") << pk::json::quote(k) << ": "
       << pk::json::quote(v);
    first = false;
  }
  os << "},\n  \"metrics\": [";
  for (pk::profile::MetricId m = 0; m < t.metric_count(); ++m) {
    os << (m == 0 ? "" : ", ") << "{\"name\": "
       << pk::json::quote(t.metric(m).name)
       << ", \"units\": " << pk::json::quote(t.metric(m).units)
       << ", \"derived\": " << (t.metric(m).derived ? "true" : "false")
       << "}";
  }
  os << "],\n  \"events\": [";
  for (pk::profile::EventId e = 0; e < t.event_count(); ++e) {
    os << (e == 0 ? "" : ", ") << "{\"name\": "
       << pk::json::quote(t.event(e).name) << ", \"parent\": "
       << parent_of(t, e) << ", \"group\": "
       << pk::json::quote(t.event(e).group) << "}";
  }
  os << "],\n  \"data\": [";
  const auto plus_zero = [](double v) {
    return std::bit_cast<std::uint64_t>(v) == 0;
  };
  first = true;
  for (std::size_t th = 0; th < t.thread_count(); ++th) {
    for (pk::profile::EventId e = 0; e < t.event_count(); ++e) {
      const auto ci = t.calls(th, e);
      bool skip = plus_zero(ci.calls) && plus_zero(ci.subcalls);
      for (pk::profile::MetricId m = 0; m < t.metric_count(); ++m) {
        skip = skip && plus_zero(t.inclusive(th, e, m)) &&
               plus_zero(t.exclusive(th, e, m));
      }
      if (skip) continue;
      os << (first ? "" : ",") << "\n    {\"thread\": " << th
         << ", \"event\": " << e << ", \"calls\": ";
      first = false;
      number(ci.calls);
      os << ", \"subcalls\": ";
      number(ci.subcalls);
      os << ", \"values\": [";
      for (pk::profile::MetricId m = 0; m < t.metric_count(); ++m) {
        os << (m == 0 ? "[" : ", [");
        number(t.inclusive(th, e, m));
        os << ", ";
        number(t.exclusive(th, e, m));
        os << "]";
      }
      os << "]}";
    }
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::string ref_csv_long(const Trial& t) {
  RefStream os;
  os << "event,thread,metric,inclusive,exclusive,calls,subcalls\n";
  for (pk::profile::EventId e = 0; e < t.event_count(); ++e) {
    for (std::size_t th = 0; th < t.thread_count(); ++th) {
      for (pk::profile::MetricId m = 0; m < t.metric_count(); ++m) {
        os << t.event(e).name << ',' << th << ',' << t.metric(m).name << ','
           << t.inclusive(th, e, m) << ',' << t.exclusive(th, e, m) << ','
           << t.calls(th, e).calls << ',' << t.calls(th, e).subcalls << '\n';
      }
    }
  }
  return os.str();
}

std::string ref_tau(const Trial& t, std::size_t th) {
  RefStream os;
  os << t.event_count() << " templated_functions_MULTI_TIME\n"
     << "# Name Calls Subrs Excl Incl ProfileCalls\n";
  for (pk::profile::EventId e = 0; e < t.event_count(); ++e) {
    const auto& ev = t.event(e);
    os << '"' << ev.name << "\" " << t.calls(th, e).calls << ' '
       << t.calls(th, e).subcalls << ' ' << t.exclusive(th, e, 0) << ' '
       << t.inclusive(th, e, 0) << " 0 GROUP=\""
       << (ev.group.empty() ? "TAU_DEFAULT" : ev.group) << "\"\n";
  }
  os << "0 aggregates\n";
  return os.str();
}

std::string ref_pkprof(const Trial& t) {
  RefStream os;
  os << "PKPROF\t1\ntrial\t" << t.name() << '\n';
  for (const auto& [k, v] : t.all_metadata()) {
    os << "meta\t" << k << '\t' << v << '\n';
  }
  os << "threads\t" << t.thread_count() << '\n';
  for (pk::profile::MetricId m = 0; m < t.metric_count(); ++m) {
    os << "metric\t" << t.metric(m).name << '\t' << t.metric(m).units << '\t'
       << (t.metric(m).derived ? 1 : 0) << '\n';
  }
  for (pk::profile::EventId e = 0; e < t.event_count(); ++e) {
    os << "event\t" << parent_of(t, e) << '\t' << t.event(e).group << '\t'
       << t.event(e).name << '\n';
  }
  for (std::size_t th = 0; th < t.thread_count(); ++th) {
    for (pk::profile::EventId e = 0; e < t.event_count(); ++e) {
      os << "d\t" << th << '\t' << e << '\t' << t.calls(th, e).calls << '\t'
         << t.calls(th, e).subcalls;
      for (pk::profile::MetricId m = 0; m < t.metric_count(); ++m) {
        os << '\t' << t.inclusive(th, e, m) << '\t' << t.exclusive(th, e, m);
      }
      os << '\n';
    }
  }
  os << "end\n";
  return os.str();
}

std::string ref_wide_csv(const Trial& t) {
  RefStream os;
  os << "event";
  for (std::size_t th = 0; th < t.thread_count(); ++th) os << ",thread" << th;
  os << '\n';
  for (pk::profile::EventId e = 0; e < t.event_count(); ++e) {
    os << t.event(e).name;
    for (std::size_t th = 0; th < t.thread_count(); ++th) {
      os << ',' << t.exclusive(th, e, 0);
    }
    os << '\n';
  }
  return os.str();
}

// ---- reading back

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every cell of `want` (of the metrics `got` has) is in `got` with the
/// same bits, events matched by name.
void expect_same_cells(const Trial& want, const Trial& got,
                       const std::string& label) {
  ASSERT_EQ(got.thread_count(), want.thread_count()) << label;
  ASSERT_EQ(got.event_count(), want.event_count()) << label;
  std::size_t compared = 0;
  for (pk::profile::MetricId gm = 0; gm < got.metric_count(); ++gm) {
    const auto m = want.metric_id(got.metric(gm).name);
    for (std::size_t th = 0; th < want.thread_count(); ++th) {
      for (pk::profile::EventId e = 0; e < want.event_count(); ++e) {
        const auto ge = got.find_event(want.event(e).name);
        ASSERT_TRUE(ge.has_value()) << label << ": " << want.event(e).name;
        const auto at = [&] {
          return label + ": thread " + std::to_string(th) + ", event " +
                 want.event(e).name;
        };
        EXPECT_EQ(bits(got.inclusive(th, *ge, gm)),
                  bits(want.inclusive(th, e, m)))
            << at();
        EXPECT_EQ(bits(got.exclusive(th, *ge, gm)),
                  bits(want.exclusive(th, e, m)))
            << at();
        EXPECT_EQ(bits(got.calls(th, *ge).calls),
                  bits(want.calls(th, e).calls))
            << at();
        EXPECT_EQ(bits(got.calls(th, *ge).subcalls),
                  bits(want.calls(th, e).subcalls))
            << at();
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 0u) << label;
}

/// ',' as the decimal point and '.' between groups of three digits.
struct CommaDecimal : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

std::locale comma_locale() {
  return std::locale(std::locale::classic(), new CommaDecimal);
}

/// Holds `loc` as the global locale for its lifetime.
class GlobalLocale {
 public:
  explicit GlobalLocale(const std::locale& loc)
      : saved_(std::locale::global(loc)) {}
  ~GlobalLocale() { std::locale::global(saved_); }
  GlobalLocale(const GlobalLocale&) = delete;
  GlobalLocale& operator=(const GlobalLocale&) = delete;

 private:
  std::locale saved_;
};

/// What a stream writer writes to a stream imbued with `loc`.
std::string to_stream(void (*write)(const Trial&, std::ostream&),
                      const Trial& t, const std::locale& loc) {
  std::ostringstream os;
  os.imbue(loc);
  write(t, os);
  return os.str();
}

/// The TAU files write_tau_profiles writes into `dir`, thread by thread.
std::vector<std::string> tau_files(const Trial& t, const fs::path& dir) {
  pk::perfdmf::write_tau_profiles(t, "TIME", dir);
  std::vector<std::string> files;
  for (std::size_t th = 0; th < t.thread_count(); ++th) {
    files.push_back(pk::read_file_bytes(
        dir / ("profile." + std::to_string(th) + ".0.0")));
  }
  return files;
}

}  // namespace

TEST(TextWriters, G17MatchesPrintfOnEveryAdversarialValue) {
  for (const double v : all_cells()) {
    std::string out = "x";
    pk::strings::append_g17(out, v);
    EXPECT_EQ(out, "x" + g17(v)) << g17(v);
  }
  std::string out;
  pk::strings::append_int(out, -1);
  pk::strings::append_int(out, std::size_t{1234567});
  EXPECT_EQ(out, "-11234567");
}

TEST(TextWriters, BytesMatchTheReferenceAndReadBackBitIdentical) {
  TempDir dir;
  const Trial finite = adversarial(finite_cells());
  const Trial any = adversarial(all_cells());

  const std::string json =
      to_stream(pk::perfdmf::write_json, finite, std::locale::classic());
  EXPECT_EQ(json, ref_json(finite));
  expect_same_cells(finite, pk::perfdmf::from_json(json), "json");

  const std::string csv =
      to_stream(pk::perfdmf::write_csv_long, any, std::locale::classic());
  EXPECT_EQ(csv, ref_csv_long(any));
  expect_same_cells(any, pk::perfdmf::read_csv_long(csv), "csv");

  const std::string pkprof =
      to_stream(pk::perfdmf::write_snapshot, any, std::locale::classic());
  EXPECT_EQ(pkprof, ref_pkprof(any));
  std::istringstream in(pkprof);
  expect_same_cells(any, pk::perfdmf::read_snapshot(in), "pkprof");

  const std::vector<std::string> tau = tau_files(any, dir.path() / "tau");
  for (std::size_t th = 0; th < tau.size(); ++th) {
    EXPECT_EQ(tau[th], ref_tau(any, th)) << "thread " << th;
  }
  expect_same_cells(any, pk::perfdmf::read_tau_profiles(dir.path() / "tau"),
                    "tau");

  EXPECT_EQ(pk::perfdmf::to_csv(any, "TIME"), ref_wide_csv(any));
}

// A non-finite cell JSON cannot hold is refused with the cell named,
// also after more than one block has reached the file, and no file is
// left behind.
TEST(TextWriters, JsonRefusesNonFiniteCellsAfterWholeBlocksAndLeavesNoFile) {
  TempDir dir;
  Trial t("big");
  t.set_thread_count(4);
  const auto time = t.add_metric("TIME", "usec");
  for (std::size_t e = 0; e < 4000; ++e) {
    t.add_event("f" + std::to_string(e));
  }
  for (std::size_t th = 0; th < 4; ++th) {
    for (pk::profile::EventId e = 0; e < t.event_count(); ++e) {
      t.set_inclusive(th, e, time, 1.0 / (3.0 + e + th));
    }
  }
  const fs::path ok = dir.path() / "ok.json";
  pk::io::save_trial(t, ok);
  ASSERT_GT(fs::file_size(ok), pk::strings::kWriteBlockBytes);

  for (const double bad : {kNaN, kInf, -kInf}) {
    Trial cell = t;
    cell.set_exclusive(3, 3999, time, bad);
    const std::string spelled =
        std::isnan(bad) ? "NaN" : bad > 0 ? "inf" : "-inf";
    const std::string want = "JSON: cannot write thread 3, event 'f3999', "
                             "metric 'TIME': its exclusive value is " +
                             spelled + ", which JSON cannot represent";
    const fs::path out = dir.path() / "refused.json";
    try {
      pk::io::save_trial(cell, out);
      ADD_FAILURE() << spelled << " was written";
    } catch (const pk::InvalidArgumentError& e) {
      EXPECT_EQ(std::string(e.what()), want);
    }
    EXPECT_FALSE(fs::exists(out)) << spelled;
    EXPECT_THROW((void)pk::perfdmf::to_json(cell), pk::InvalidArgumentError);
  }
}

// Every writer writes the same bytes to a classic stream, to a stream
// whose locale has a comma decimal point and digit grouping, and into a
// file while that locale is the global one.
TEST(TextWriters, NoLocaleReachesTheBytes) {
  TempDir dir;
  const Trial finite = adversarial(finite_cells());
  const Trial any = adversarial(all_cells());
  const std::locale comma = comma_locale();
  struct StreamWriter {
    const char* format;
    void (*write)(const Trial&, std::ostream&);
    const Trial* trial;
  };
  const StreamWriter writers[] = {
      {"json", pk::perfdmf::write_json, &finite},
      {"csv", pk::perfdmf::write_csv_long, &any},
      {"pkprof", pk::perfdmf::write_snapshot, &any}};
  for (const StreamWriter& w : writers) {
    const std::string classic =
        to_stream(w.write, *w.trial, std::locale::classic());
    EXPECT_EQ(to_stream(w.write, *w.trial, comma), classic)
        << w.format << " on an imbued stream";
    const fs::path file = dir.path() / (std::string("t.") + w.format);
    {
      const GlobalLocale global(comma);
      pk::io::save_trial(*w.trial, file);
    }
    EXPECT_EQ(pk::read_file_bytes(file), classic)
        << w.format << " under a global locale";
  }

  const std::vector<std::string> tau = tau_files(any, dir.path() / "classic");
  const std::string wide = pk::perfdmf::to_csv(any, "TIME");
  const GlobalLocale global(comma);
  EXPECT_EQ(tau_files(any, dir.path() / "comma"), tau)
      << "tau under a global locale";
  EXPECT_EQ(pk::perfdmf::to_csv(any, "TIME"), wide)
      << "to_csv under a global locale";
}
