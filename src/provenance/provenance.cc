#include "src/provenance/provenance.h"

#include <cstring>
#include <functional>
#include <map>

#include "src/common/string_util.h"
#include "src/exec/executor.h"
#include "src/exec/join.h"

namespace cajade {

std::string MangleRelationName(const std::string& relation) {
  std::string out;
  out.reserve(relation.size() + 4);
  for (char c : relation) {
    if (c == '_') {
      out += "__";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string ProvenanceColumnName(const std::string& relation,
                                 const std::string& attribute) {
  return "prov_" + MangleRelationName(relation) + "_" + attribute;
}

int ProvenanceTable::FindColumnForAlias(const std::string& alias,
                                        const std::string& attribute) const {
  for (size_t a = 0; a < aliases.size(); ++a) {
    if (aliases[a] != alias) continue;
    // Scan this alias's column block for the attribute suffix.
    int begin = alias_column_offset[a];
    int end = (a + 1 < aliases.size())
                  ? alias_column_offset[a + 1]
                  : static_cast<int>(table.schema().num_columns());
    for (int c = begin; c < end; ++c) {
      const std::string& name = table.schema().column(c).name;
      // Names are prov_<rel>[_<alias>]_<attr>; match on the attr suffix.
      if (name.size() > attribute.size() &&
          name.compare(name.size() - attribute.size(), attribute.size(),
                       attribute) == 0 &&
          name[name.size() - attribute.size() - 1] == '_') {
        return c;
      }
    }
  }
  return -1;
}

int ProvenanceTable::FindColumn(const std::string& relation,
                                const std::string& attribute) const {
  for (size_t a = 0; a < aliases.size(); ++a) {
    if (relations[a] != relation) continue;
    int c = FindColumnForAlias(aliases[a], attribute);
    if (c >= 0) return c;
  }
  return -1;
}

namespace {

/// Cell hash of a NULL, whatever the column type.
constexpr uint64_t kNullCellHash = 0xdeadULL;

/// Folds `cell(r)` for rows [0, n) into four interleaved lanes, lane j
/// taking rows j, j + 4, ..., so that no cell's fold waits on the previous
/// cell's; then folds the lanes in order. Every cell and its row position
/// count.
template <typename CellHash>
uint64_t FoldColumn(size_t n, CellHash cell) {
  uint64_t lane[4] = {1, 2, 3, 4};
  size_t r = 0;
  for (; r + 4 <= n; r += 4) {
    lane[0] = CombineKeyHash(lane[0], cell(r));
    lane[1] = CombineKeyHash(lane[1], cell(r + 1));
    lane[2] = CombineKeyHash(lane[2], cell(r + 2));
    lane[3] = CombineKeyHash(lane[3], cell(r + 3));
  }
  for (; r < n; ++r) lane[r % 4] = CombineKeyHash(lane[r % 4], cell(r));
  uint64_t h = kRowKeyHashSeed;
  for (uint64_t l : lane) h = CombineKeyHash(h, SplitMix64(l));
  return h;
}

/// Content hash of a column of 8-byte numbers, by bit pattern.
template <typename T>
uint64_t NumberColumnFingerprint(const T* v, const uint8_t* nulls, size_t n) {
  static_assert(sizeof(T) == sizeof(uint64_t), "8-byte cells");
  return FoldColumn(n, [&](size_t r) {
    uint64_t bits;
    std::memcpy(&bits, &v[r], sizeof(bits));
    return nulls[r] != 0 ? kNullCellHash : SplitMix64(bits);
  });
}

/// Content hash of one column: numbers by bit pattern, strings by their
/// bytes, each distinct string hashed once through a memo indexed by its
/// dictionary code.
uint64_t ColumnFingerprint(const Column& col, size_t n) {
  const uint8_t* nulls = col.nulls().data();
  switch (col.type()) {
    case DataType::kInt64:
      return NumberColumnFingerprint(col.ints().data(), nulls, n);
    case DataType::kDouble:
      return NumberColumnFingerprint(col.doubles().data(), nulls, n);
    case DataType::kString: {
      const int32_t* codes = col.codes().data();
      std::vector<uint64_t> memo(col.dict_size(), 0);  // 0 = not yet hashed
      return FoldColumn(n, [&](size_t r) {
        if (nulls[r] != 0) return kNullCellHash;
        uint64_t& h = memo[static_cast<size_t>(codes[r])];
        if (h == 0) {
          h = std::hash<std::string>{}(col.DictEntry(codes[r]));
          if (h == 0) h = 1;
        }
        return h;
      });
    }
    default:
      return FoldColumn(n, [](size_t) { return kNullCellHash; });
  }
}

}  // namespace

uint64_t ProvenanceTable::ContentFingerprint() const {
  uint64_t cached = content_fingerprint_.value.load(std::memory_order_acquire);
  if (cached != 0) return cached;
  // One typed pass per column. Deterministic, so concurrent first callers
  // compute — and store — the same value.
  const size_t n = table.num_rows();
  uint64_t h = CombineKeyHash(0x9e3779b97f4a7c15ULL, SplitMix64(n));
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    h = CombineKeyHash(h, SplitMix64(static_cast<uint64_t>(col.type())));
    h = CombineKeyHash(h, ColumnFingerprint(col, n));
  }
  if (h == 0) h = 1;  // 0 is the not-yet-computed sentinel
  content_fingerprint_.value.store(h, std::memory_order_release);
  return h;
}

Result<ProvenanceTable> ComputeProvenance(const Database& db,
                                          const ParsedQuery& query) {
  QueryExecutor executor(&db);
  return ComputeProvenance(executor, query);
}

Result<ProvenanceTable> ComputeProvenance(const QueryExecutor& executor,
                                          const ParsedQuery& query) {
  const Database& db = *executor.db();
  ASSIGN_OR_RETURN(QueryOutput qout, executor.ExecuteWithProvenance(query));

  ProvenanceTable pt;
  pt.result = std::move(qout.result);
  pt.aliases = qout.spj.aliases;
  pt.relations = qout.spj.relations;
  pt.output_to_pt_rows = std::move(qout.group_rows);
  pt.group_by_output_cols = std::move(qout.group_by_output_cols);

  // Count alias occurrences per relation for disambiguation.
  std::map<std::string, int> relation_use_count;
  for (const auto& rel : pt.relations) ++relation_use_count[rel];

  // Build the prov_-renamed schema; column order matches the working table.
  Table& working = qout.spj.table;
  Schema schema;
  size_t col = 0;
  for (size_t a = 0; a < pt.aliases.size(); ++a) {
    pt.alias_column_offset.push_back(static_cast<int>(col));
    ASSIGN_OR_RETURN(TablePtr base, db.GetTable(pt.relations[a]));
    bool ambiguous = relation_use_count[pt.relations[a]] > 1;
    for (const auto& cdef : base->schema().columns()) {
      std::string name =
          ambiguous ? "prov_" + MangleRelationName(pt.relations[a]) + "_" +
                          pt.aliases[a] + "_" + cdef.name
                    : ProvenanceColumnName(pt.relations[a], cdef.name);
      RETURN_NOT_OK(schema.AddColumn(name, cdef.type, cdef.mining_excluded));
      ++col;
    }
  }

  // Map group-by working columns ("alias.column") to PT column indexes.
  // The working schema has identical column order, so indexes carry over.
  for (const auto& g : query.group_by) {
    // Resolve the group-by ref against the working table by name.
    for (size_t c = 0; c < working.schema().num_columns(); ++c) {
      const std::string& wname = working.schema().column(c).name;
      auto dot = wname.find('.');
      std::string walias = wname.substr(0, dot);
      std::string wcol = wname.substr(dot + 1);
      bool qualifier_ok = g->table.empty() || g->table == walias;
      if (qualifier_ok && g->column == wcol) {
        pt.group_by_pt_cols.push_back(static_cast<int>(c));
        // Locate the alias's relation for context-copy exclusion.
        for (size_t a = 0; a < pt.aliases.size(); ++a) {
          if (pt.aliases[a] == walias) {
            pt.group_by_source_attrs.emplace_back(pt.relations[a], wcol);
            break;
          }
        }
        break;
      }
    }
  }

  size_t num_rows = working.num_rows();
  std::vector<Column> columns = working.TakeColumns();
  pt.table = Table("PT", std::move(schema), std::move(columns), num_rows);
  return pt;
}

}  // namespace cajade
