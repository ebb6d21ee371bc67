// CSV emission for experiment artefacts (power traces, sweep tables).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace pcap::common {

/// Streams rows to an ostream with proper quoting. The writer owns no
/// stream; callers keep the ofstream alive for the writer's lifetime.
class CsvWriter {
 public:
  CsvWriter(std::ostream& out, std::vector<std::string> header);

  /// Appends one cell to the current row. Mixed-type overloads.
  CsvWriter& cell(const std::string& value);
  CsvWriter& cell(double value);
  CsvWriter& cell(std::int64_t value);
  CsvWriter& cell(std::size_t value);

  /// Terminates the current row. Throws std::logic_error if the number of
  /// cells does not match the header width.
  void end_row();

  [[nodiscard]] std::size_t rows_written() const { return rows_; }

 private:
  void write_quoted(const std::string& value);

  std::ostream& out_;
  std::size_t width_;
  std::size_t cells_in_row_ = 0;
  std::size_t rows_ = 0;
};

/// Parses simple CSV text (quotes supported) into rows of strings.
/// Used by trace replay and by tests to round-trip artefacts.
std::vector<std::vector<std::string>> parse_csv(const std::string& text);

}  // namespace pcap::common
