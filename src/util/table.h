// Plain-text and CSV table rendering for bench/report output.
//
// Every bench binary regenerates one of the paper's tables; TextTable
// formats aligned columns the way the paper prints them (e.g. the
// "min/avg" cell style of Tables 1-3) and can also emit CSV for
// downstream plotting.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace vlsipart {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Append a data row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Render with aligned, space-padded columns and a header rule.
  std::string to_string() const;

  /// Render as CSV (no alignment padding).
  std::string to_csv() const;

  std::size_t rows() const { return rows_.size(); }
  std::size_t columns() const { return header_.size(); }

  /// Raw cells, for machine-readable emitters (bench --json).
  const std::vector<std::string>& header() const { return header_; }
  const std::vector<std::vector<std::string>>& data() const { return rows_; }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format a double with fixed precision (default 1 decimal, like the
/// paper's cut/CPU cells).
std::string fmt_fixed(double value, int decimals = 1);

/// "min/avg" cell used throughout Tables 1-3.
std::string fmt_min_avg(double min, double avg, int decimals = 0);

}  // namespace vlsipart
