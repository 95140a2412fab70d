#include "common/strings.hpp"

#include "common/assert.hpp"

#include <algorithm>
#include <sstream>

namespace qvg {

std::string format_fixed(double value, int digits) {
  QVG_EXPECTS(digits >= 0);
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(digits);
  os << value;
  return os.str();
}

std::string pad_left(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string pad_right(const std::string& s, std::size_t width) {
  if (s.size() >= width) return s;
  return s + std::string(width - s.size(), ' ');
}

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream is(s);
  while (std::getline(is, field, delim)) out.push_back(field);
  if (!s.empty() && s.back() == delim) out.emplace_back();
  if (s.empty()) out.emplace_back();
  return out;
}

std::string render_table(const std::vector<std::string>& header,
                         const std::vector<std::vector<std::string>>& rows) {
  QVG_EXPECTS(!header.empty());
  std::vector<std::size_t> widths(header.size());
  for (std::size_t c = 0; c < header.size(); ++c) widths[c] = header[c].size();
  for (const auto& row : rows) {
    QVG_EXPECTS(row.size() == header.size());
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());
  }

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << "| " << pad_right(row[c], widths[c]) << ' ';
    }
    os << "|\n";
  };
  auto emit_rule = [&] {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      os << '+' << std::string(widths[c] + 2, '-');
    }
    os << "+\n";
  };

  emit_rule();
  emit_row(header);
  emit_rule();
  for (const auto& row : rows) emit_row(row);
  emit_rule();
  return os.str();
}

}  // namespace qvg
