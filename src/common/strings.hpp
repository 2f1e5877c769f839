// String helpers shared by the text front ends (rules DSL, PerfScript,
// profile snapshot formats) and the report printers.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace perfknow::strings {

/// std::isspace in the "C" locale (space, \t, \n, \v, \f, \r), inline:
/// the text readers test every byte with it.
[[nodiscard]] constexpr bool is_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Splits on a single character; adjacent delimiters yield empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char delim);

/// Splits on arbitrary whitespace runs; never yields empty fields.
[[nodiscard]] std::vector<std::string> split_whitespace(std::string_view s);

/// Reads the line that starts at byte `pos` of `text`, without its
/// '\n', into `line` and moves `pos` past it. Returns false once `text`
/// is exhausted; the lines are exactly those std::getline yields. The
/// bytes it moves `pos` over are added to the telemetry counter
/// "text.scanned".
bool next_line(std::string_view text, std::size_t& pos,
               std::string_view& line);

/// Strips leading and trailing whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);
[[nodiscard]] bool contains(std::string_view s, std::string_view needle);

/// Joins elements with the given separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// Replaces every occurrence of `from` with `to`.
[[nodiscard]] std::string replace_all(std::string_view s,
                                      std::string_view from,
                                      std::string_view to);

/// Fixed-precision formatting without iostream state leakage.
[[nodiscard]] std::string format_double(double v, int precision = 4);

/// Appends `v` exactly as printf's "%.17g" spells it in the "C" locale
/// (`std::to_chars`, general format, 17 significant digits), so every
/// finite value reads back to the same bits; NaN and the infinities
/// come out as "nan", "-nan", "inf" and "-inf". No locale is consulted.
/// Every profile text writer spells its values through this one
/// function.
void append_g17(std::string& out, double v);

/// Appends `v` in plain decimal: no locale, no digit grouping.
template <std::integral T>
void append_int(std::string& out, T v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

/// How much text the profile writers build before handing it to their
/// stream.
inline constexpr std::size_t kWriteBlockBytes = std::size_t{1} << 20;

/// Writes `text` to `os` and clears it once it holds kWriteBlockBytes,
/// or whatever it holds when `last`. The profile writers build rows in
/// one reused string and call this after each row, so the stream sees
/// only block writes: neither its locale nor its format state reaches
/// the bytes.
void write_block(std::ostream& os, std::string& text, bool last = false);

/// Parses a double; throws ParseError with the value echoed on failure.
[[nodiscard]] double parse_double(std::string_view s);

/// Parses a non-negative integer; throws ParseError on failure.
[[nodiscard]] long long parse_int(std::string_view s);

/// Renders one byte for diagnostics: printable characters verbatim,
/// everything else (NUL, control bytes, high bytes) as \xNN so error
/// messages from hostile input stay printable.
[[nodiscard]] std::string printable_char(char c);

/// Returns up to `radius` characters to each side of `pos`, clipped to
/// `pos`'s line, with non-printable bytes escaped -- the input excerpt
/// attached to ParseError diagnostics.
[[nodiscard]] std::string excerpt(std::string_view s, std::size_t pos,
                                  std::size_t radius = 20);

}  // namespace perfknow::strings
