// Minimal table builder: every bench prints its figure/table reproduction
// as markdown (and optionally CSV) through this, so EXPERIMENTS.md rows
// can be pasted as is.
#pragma once

#include <string>
#include <vector>

namespace stackroute {

/// Fixed-precision decimal formatting ("0.41558"), trimming to `digits`.
std::string format_double(double v, int digits = 6);

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a row; must match the header width.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with format_double.
  void add_numeric_row(const std::vector<double>& cells, int digits = 6);

  [[nodiscard]] std::string to_markdown() const;
  [[nodiscard]] std::string to_csv() const;

  /// Array of {header: value} objects; cells that parse as finite numbers
  /// are emitted unquoted, everything else (including nan/inf, which JSON
  /// cannot represent) as escaped strings.
  [[nodiscard]] std::string to_json() const;

  [[nodiscard]] std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace stackroute
