// A small append-only time-series table: one row per sample instant, one
// column per metric. Produced by periodic registry snapshots (rt node
// sampler, sim harness) so experiments yield trajectories — throughput,
// miss ratio, queue depths over time — instead of only run-end totals.
//
// Columns may appear after the first rows (a metric registered late);
// exporters pad missing leading cells with 0.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rodain::obs {

class TimeSeries {
 public:
  /// Index of `name`, registering the column on first use.
  std::size_t column(std::string_view name);

  /// Start a new row stamped `ts_us`; subsequent set() calls fill it.
  void add_row(std::int64_t ts_us);

  /// Set a cell of the current (last) row.
  void set(std::size_t col, double value);
  void set(std::string_view name, double value) { set(column(name), value); }

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& columns() const {
    return columns_;
  }
  /// Cell value (0 if the column did not exist when the row was taken).
  [[nodiscard]] double at(std::size_t row, std::size_t col) const;
  [[nodiscard]] std::int64_t timestamp(std::size_t row) const {
    return rows_[row].ts_us;
  }

  /// "t_us,colA,colB\n..." — one header line then one line per row.
  [[nodiscard]] std::string to_csv() const;
  /// {"columns":["t_us",...],"rows":[[ts,...],...]}
  [[nodiscard]] std::string to_json() const;

 private:
  struct Row {
    std::int64_t ts_us{0};
    std::vector<double> values;  // aligned to columns_ prefix at sample time
  };
  std::vector<std::string> columns_;
  std::vector<Row> rows_;
};

}  // namespace rodain::obs
