#include "src/storage/table.h"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "src/common/string_util.h"

namespace cajade {

uint64_t Table::NextContentVersion() {
  // Starts at 1 so 0 can mean "no version observed yet" in cache entries.
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

size_t Table::ApproxBytes() const {
  size_t bytes = 0;
  for (const Column& col : columns_) {
    bytes += col.ints().size() * sizeof(int64_t);
    bytes += col.doubles().size() * sizeof(double);
    bytes += col.codes().size() * sizeof(int32_t);
    bytes += col.nulls().size();
    // String payload plus per-entry bookkeeping (dictionary vector slot
    // and index map node).
    bytes += col.dict_string_bytes() + col.dict_size() * 48;
  }
  return bytes;
}

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  columns_.reserve(schema_.num_columns());
  for (size_t i = 0; i < schema_.num_columns(); ++i) {
    columns_.emplace_back(schema_.column(i).type);
  }
}

const Column* Table::FindColumn(const std::string& name) const {
  int idx = schema_.FindColumn(name);
  return idx < 0 ? nullptr : &columns_[idx];
}

void Table::Reserve(size_t n) {
  for (auto& c : columns_) c.Reserve(n);
}

Status Table::AppendRow(const std::vector<Value>& row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        Format("row has %zu values, table '%s' has %zu columns", row.size(),
               name_.c_str(), columns_.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    RETURN_NOT_OK(columns_[i].AppendValue(row[i]));
  }
  ++num_rows_;
  MarkMutated();
  return Status::OK();
}

std::string Table::ToString(size_t limit) const {
  size_t rows = std::min(limit, num_rows_);
  std::vector<std::vector<std::string>> cells;
  std::vector<std::string> header;
  for (const auto& c : schema_.columns()) header.push_back(c.name);
  cells.push_back(header);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    for (size_t c = 0; c < num_columns(); ++c) row.push_back(GetValue(r, c).ToString());
    cells.push_back(std::move(row));
  }
  std::vector<size_t> widths(num_columns(), 0);
  for (const auto& row : cells) {
    for (size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }
  std::ostringstream out;
  for (size_t r = 0; r < cells.size(); ++r) {
    for (size_t c = 0; c < cells[r].size(); ++c) {
      out << cells[r][c] << std::string(widths[c] - cells[r][c].size() + 2, ' ');
    }
    out << '\n';
    if (r == 0) {
      for (size_t c = 0; c < widths.size(); ++c) {
        out << std::string(widths[c], '-') << "  ";
      }
      out << '\n';
    }
  }
  if (rows < num_rows_) {
    out << "... (" << num_rows_ - rows << " more rows)\n";
  }
  return out.str();
}

}  // namespace cajade
