#include "support/table.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "support/error.hpp"

namespace rrsn {

std::string withThousands(std::uint64_t n) {
  std::string digits = std::to_string(n);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t lead = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - lead) % 3 == 0 && i >= lead) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string withThousands(std::int64_t n) {
  if (n >= 0) return withThousands(static_cast<std::uint64_t>(n));
  // The magnitude in unsigned arithmetic: -n overflows for INT64_MIN.
  std::string out = withThousands(0 - static_cast<std::uint64_t>(n));
  out.insert(out.begin(), '-');
  return out;
}

std::string formatMinSec(double seconds) {
  if (seconds < 0) seconds = 0;
  const auto total = static_cast<std::uint64_t>(std::llround(seconds));
  const std::uint64_t m = total / 60;
  const std::uint64_t s = total % 60;
  std::ostringstream os;
  os << (m < 10 ? "0" : "") << m << ':' << (s < 10 ? "0" : "") << s;
  return os.str();
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)), aligns_(headers_.size(), Align::Right) {
  RRSN_CHECK(!headers_.empty(), "a table needs at least one column");
}

void TextTable::setAlign(std::size_t column, Align align) {
  RRSN_CHECK(column < aligns_.size(), "column index out of range");
  aligns_[column] = align;
}

void TextTable::addRow(std::vector<std::string> cells) {
  RRSN_CHECK(cells.size() == headers_.size(),
             "row arity does not match header arity");
  rows_.push_back(Row{std::move(cells), false});
}

void TextTable::addSeparator() { rows_.push_back(Row{{}, true}); }

std::string TextTable::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const Row& row : rows_) {
    if (row.separator) continue;
    for (std::size_t c = 0; c < row.cells.size(); ++c)
      widths[c] = std::max(widths[c], row.cells[c].size());
  }

  const auto emitCell = [&](std::ostringstream& os, const std::string& text,
                            std::size_t c) {
    const std::size_t pad = widths[c] - text.size();
    if (aligns_[c] == Align::Right) os << std::string(pad, ' ') << text;
    else os << text << std::string(pad, ' ');
  };
  const auto emitRule = [&](std::ostringstream& os) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      if (c != 0) os << "-+-";
      os << std::string(widths[c], '-');
    }
    os << '\n';
  };

  std::ostringstream os;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c != 0) os << " | ";
    emitCell(os, headers_[c], c);
  }
  os << '\n';
  emitRule(os);
  for (const Row& row : rows_) {
    if (row.separator) {
      emitRule(os);
      continue;
    }
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      if (c != 0) os << " | ";
      emitCell(os, row.cells[c], c);
    }
    os << '\n';
  }
  return os.str();
}

std::string TextTable::renderCsv() const {
  const auto escape = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string out = "\"";
    for (char ch : s) {
      if (ch == '"') out += "\"\"";
      else out.push_back(ch);
    }
    out.push_back('"');
    return out;
  };
  std::ostringstream os;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c != 0) os << ',';
    os << escape(headers_[c]);
  }
  os << '\n';
  for (const Row& row : rows_) {
    if (row.separator) continue;
    for (std::size_t c = 0; c < row.cells.size(); ++c) {
      if (c != 0) os << ',';
      os << escape(row.cells[c]);
    }
    os << '\n';
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const TextTable& table) {
  return os << table.render();
}

}  // namespace rrsn
