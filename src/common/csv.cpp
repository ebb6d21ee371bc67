#include "common/csv.hpp"

#include <cstdio>
#include <stdexcept>

namespace pcap::common {

CsvWriter::CsvWriter(std::ostream& out, std::vector<std::string> header)
    : out_(out), width_(header.size()) {
  if (width_ == 0) throw std::logic_error("csv: empty header");
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i != 0) out_ << ',';
    write_quoted(header[i]);
  }
  out_ << '\n';
}

CsvWriter& CsvWriter::cell(const std::string& value) {
  if (cells_in_row_ != 0) out_ << ',';
  write_quoted(value);
  ++cells_in_row_;
  return *this;
}

CsvWriter& CsvWriter::cell(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return cell(std::string(buf));
}

CsvWriter& CsvWriter::cell(std::int64_t value) {
  return cell(std::to_string(value));
}

CsvWriter& CsvWriter::cell(std::size_t value) {
  return cell(std::to_string(value));
}

void CsvWriter::end_row() {
  if (cells_in_row_ != width_) {
    throw std::logic_error("csv: row has " + std::to_string(cells_in_row_) +
                           " cells, header has " + std::to_string(width_));
  }
  out_ << '\n';
  cells_in_row_ = 0;
  ++rows_;
}

void CsvWriter::write_quoted(const std::string& value) {
  const bool needs_quote =
      value.find_first_of(",\"\n") != std::string::npos;
  if (!needs_quote) {
    out_ << value;
    return;
  }
  out_ << '"';
  for (char c : value) {
    if (c == '"') out_ << '"';
    out_ << c;
  }
  out_ << '"';
}

std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string cell;
  bool in_quotes = false;
  bool row_has_content = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell += c;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_quotes = true;
        row_has_content = true;
        break;
      case ',':
        row.push_back(std::move(cell));
        cell.clear();
        row_has_content = true;
        break;
      case '\n':
        if (row_has_content || !cell.empty()) {
          row.push_back(std::move(cell));
          cell.clear();
          rows.push_back(std::move(row));
          row.clear();
          row_has_content = false;
        }
        break;
      case '\r':
        break;
      default:
        cell += c;
        row_has_content = true;
        break;
    }
  }
  if (row_has_content || !cell.empty()) {
    row.push_back(std::move(cell));
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace pcap::common
