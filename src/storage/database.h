// The catalog: named tables with their schemas.
//
// Ownership and thread-safety: the catalog owns its tables via TablePtr
// (shared_ptr) and lookups hand out shared ownership. After load the engine
// treats tables as immutable, so concurrent read-only access is safe;
// catalog mutation (AddTable) is single-stream.

#ifndef CAJADE_STORAGE_DATABASE_H_
#define CAJADE_STORAGE_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/storage/table.h"

namespace cajade {

/// \brief A database instance: a set of named tables.
class Database {
 public:
  /// Creates an empty table with the given schema and registers it.
  Result<TablePtr> CreateTable(const std::string& name, Schema schema);

  /// Registers an already-built table; rejects duplicates.
  Status AddTable(TablePtr table);

  /// Registers `table` under its name, replacing any table of that name:
  /// the way to publish a rewritten relation, whose new object carries a
  /// content version of its own.
  void ReplaceTable(TablePtr table) { tables_[table->name()] = std::move(table); }

  bool HasTable(const std::string& name) const { return tables_.count(name) > 0; }

  Result<TablePtr> GetTable(const std::string& name) const;
  /// The table under `name` without taking shared ownership; null when
  /// absent.
  const Table* FindTable(const std::string& name) const {
    auto it = tables_.find(name);
    return it == tables_.end() ? nullptr : it->second.get();
  }

  /// Table names in deterministic (sorted) order.
  std::vector<std::string> table_names() const;

  size_t num_tables() const { return tables_.size(); }

  /// Sum of rows across all tables (dataset-size reporting).
  size_t TotalRows() const;

 private:
  std::map<std::string, TablePtr> tables_;
};

}  // namespace cajade

#endif  // CAJADE_STORAGE_DATABASE_H_
