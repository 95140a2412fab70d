// Small text-formatting helpers for tables and reports.
#pragma once

#include <string>
#include <vector>

namespace qvg {

/// Format a double with fixed precision (like printf "%.{digits}f").
[[nodiscard]] std::string format_fixed(double value, int digits);

/// Left-pad (align right) a string to the given width with spaces.
[[nodiscard]] std::string pad_left(const std::string& s, std::size_t width);

/// Right-pad (align left) a string to the given width with spaces.
[[nodiscard]] std::string pad_right(const std::string& s, std::size_t width);

/// Split a string on a delimiter character; keeps empty fields.
[[nodiscard]] std::vector<std::string> split(const std::string& s, char delim);

/// Trim ASCII whitespace from both ends.
[[nodiscard]] std::string trim(const std::string& s);

/// Render a simple aligned text table. Every row must have the same number of
/// columns as `header`. Used by the examples/paper_* programs to print
/// Table-1-style summaries.
[[nodiscard]] std::string render_table(
    const std::vector<std::string>& header,
    const std::vector<std::vector<std::string>>& rows);

}  // namespace qvg
