// In-memory columnar table.
//
// Ownership and thread-safety: a Table owns its columns; instances are
// shared read-only via TablePtr after load (the engine treats loaded tables
// as immutable), so concurrent reads are safe and mutation (AppendRow etc.)
// is single-stream.

#ifndef CAJADE_STORAGE_TABLE_H_
#define CAJADE_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/storage/column.h"
#include "src/storage/schema.h"

namespace cajade {

/// \brief A named columnar relation instance.
class Table {
 public:
  Table() = default;
  Table(std::string name, Schema schema);
  /// Adopts pre-built columns (must match the schema's arity and types).
  Table(std::string name, Schema schema, std::vector<Column> columns,
        size_t num_rows)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        columns_(std::move(columns)),
        num_rows_(num_rows) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  Column& column(size_t i) { return columns_[i]; }
  const Column& column(size_t i) const { return columns_[i]; }
  /// Column by name; null when absent.
  const Column* FindColumn(const std::string& name) const;

  void Reserve(size_t n);

  /// Appends a full row; the row must have one value per column with
  /// compatible types.
  Status AppendRow(const std::vector<Value>& row);

  /// Cell accessor through Value (allocates for strings).
  Value GetValue(size_t row, size_t col) const { return columns_[col].GetValue(row); }

  /// Moves the columns out (the table becomes empty); used to re-label a
  /// working table as a provenance table without copying data.
  std::vector<Column> TakeColumns() {
    num_rows_ = 0;
    MarkMutated();
    return std::move(columns_);
  }

  /// Process-unique content stamp: a fresh value is drawn from a global
  /// monotonic counter at construction and after every mutation (AppendRow,
  /// TakeColumns, and the MarkMutated call owed after writing cells through
  /// the non-const column() accessor), so two observations of equal
  /// versions on the same table imply unchanged content, and a replacement
  /// published through Database::ReplaceTable, being a new object, never
  /// reuses a version either. Caches that outlive one request — the
  /// process-wide join-index cache, the statistics catalog — key on
  /// (name, content_version) to invalidate on base-table change. Copies
  /// keep the source's version (identical content) and diverge on their
  /// first own mutation.
  uint64_t content_version() const { return content_version_; }

  /// Re-stamps the version. Callers that mutate cells through the non-const
  /// column() accessor must call this afterwards, or version-keyed caches
  /// will serve stale state.
  void MarkMutated() { content_version_ = NextContentVersion(); }

  /// Approximate heap footprint of the column data (value buffers, null
  /// bytes, dictionary payloads + per-entry bookkeeping); the unit of the
  /// byte accounting used by the LRU-bounded caches.
  size_t ApproxBytes() const;

  /// Renders the first `limit` rows as an aligned ASCII table (debugging,
  /// examples).
  std::string ToString(size_t limit = 20) const;

 private:
  static uint64_t NextContentVersion();

  std::string name_;
  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
  uint64_t content_version_ = NextContentVersion();
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace cajade

#endif  // CAJADE_STORAGE_TABLE_H_
