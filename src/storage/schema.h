// Relation schemas: named, typed columns plus primary-key and foreign-key
// metadata. FK metadata seeds the schema graph (Section 2.2 of the paper).
//
// Ownership and thread-safety: plain value types owned by the caller;
// concurrent const access is safe, mutation of a shared instance requires
// external synchronization.

#ifndef CAJADE_STORAGE_SCHEMA_H_
#define CAJADE_STORAGE_SCHEMA_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/value.h"

namespace cajade {

/// A single column definition.
struct ColumnDef {
  std::string name;
  DataType type;
  /// Excluded from summarization patterns (dates, surrogate keys): such
  /// attributes trivially separate any two groups without explaining
  /// anything (paper patterns never contain them).
  bool mining_excluded = false;
};

/// A foreign-key constraint: columns of this relation referencing columns of
/// another relation (positionally aligned).
struct ForeignKey {
  std::vector<std::string> columns;
  std::string ref_table;
  std::vector<std::string> ref_columns;
};

/// \brief Ordered column definitions with PK/FK metadata.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnDef> columns) {
    for (auto& c : columns) AddColumn(c.name, c.type, c.mining_excluded);
  }

  /// Appends a column; duplicate names are rejected.
  Status AddColumn(const std::string& name, DataType type,
                   bool mining_excluded = false);

  /// Marks existing columns as excluded from pattern mining.
  void SetMiningExcluded(const std::vector<std::string>& names);

  /// Index of `name`, or -1 when absent.
  int FindColumn(const std::string& name) const;

  size_t num_columns() const { return columns_.size(); }
  const ColumnDef& column(size_t i) const { return columns_[i]; }
  const std::vector<ColumnDef>& columns() const { return columns_; }

  void SetPrimaryKey(std::vector<std::string> key) { primary_key_ = std::move(key); }
  const std::vector<std::string>& primary_key() const { return primary_key_; }

  void AddForeignKey(ForeignKey fk) { foreign_keys_.push_back(std::move(fk)); }
  const std::vector<ForeignKey>& foreign_keys() const { return foreign_keys_; }

 private:
  std::vector<ColumnDef> columns_;
  std::unordered_map<std::string, int> index_;
  std::vector<std::string> primary_key_;
  std::vector<ForeignKey> foreign_keys_;
};

}  // namespace cajade

#endif  // CAJADE_STORAGE_SCHEMA_H_
