#include "common/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <ostream>

#include "common/error.hpp"
#include "telemetry/telemetry.hpp"

namespace perfknow::strings {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> split_whitespace(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    const std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

bool next_line(std::string_view text, std::size_t& pos,
               std::string_view& line) {
  // Counted so tests can check that the readers scan their input in
  // linear time.
  static telemetry::Counter& scanned = telemetry::counter("text.scanned");
  if (pos >= text.size()) return false;
  const std::size_t nl = text.find('\n', pos);
  const std::size_t end = nl == std::string_view::npos ? text.size() : nl;
  line = text.substr(pos, end - pos);
  scanned.add(end - pos + (nl == std::string_view::npos ? 0 : 1));
  pos = end + 1;
  return true;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool contains(std::string_view s, std::string_view needle) {
  return s.find(needle) != std::string_view::npos;
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) {
      out += s.substr(start);
      return out;
    }
    out += s.substr(start, pos - start);
    out += to;
    start = pos + from.size();
  }
}

std::string format_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

void append_g17(std::string& out, double v) {
  char buf[32];  // "-1.2345678901234567e-308" is the longest, 24 bytes
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                std::chars_format::general, 17)
                      .ptr);
}

void write_block(std::ostream& os, std::string& text, bool last) {
  if (text.size() < kWriteBlockBytes && !last) return;
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
  text.clear();
}

double parse_double(std::string_view s) {
  const std::string_view t = trim(s);
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(t.data(), t.data() + t.size(), value);
  if (ec != std::errc{} || ptr != t.data() + t.size()) {
    throw ParseError("not a number: '" + std::string(s) + "'");
  }
  return value;
}

long long parse_int(std::string_view s) {
  const std::string_view t = trim(s);
  long long value = 0;
  const auto [ptr, ec] =
      std::from_chars(t.data(), t.data() + t.size(), value);
  if (ec != std::errc{} || ptr != t.data() + t.size()) {
    throw ParseError("not an integer: '" + std::string(s) + "'");
  }
  return value;
}

std::string printable_char(char c) {
  const auto u = static_cast<unsigned char>(c);
  if (std::isprint(u)) return std::string(1, c);
  char buf[8];
  std::snprintf(buf, sizeof buf, "\\x%02x", u);
  return buf;
}

std::string excerpt(std::string_view s, std::size_t pos,
                    std::size_t radius) {
  if (s.empty()) return "";
  if (pos >= s.size()) pos = s.size() - 1;
  std::size_t b = pos;
  while (b > 0 && pos - (b - 1) <= radius && s[b - 1] != '\n') --b;
  std::size_t e = pos;
  while (e < s.size() && e - pos < radius && s[e] != '\n') ++e;
  std::string out;
  for (std::size_t i = b; i < e; ++i) out += printable_char(s[i]);
  return out;
}

}  // namespace perfknow::strings
