#include "tests/oracles/oracles.h"

#include <numeric>

#include "src/common/string_util.h"
#include "src/exec/flat_hash.h"

// The scalar APT materializer, kept verbatim as the differential oracle and
// bench baseline: per-edge flat indexes of canonical row-key hashes, scalar
// HashRowKey/RowKeysEqual probes, breadth-first edge order.

namespace cajade {

namespace {

/// PT column for (relation hint, attribute); any relation with the attribute
/// when the hint is empty.
Result<int> ResolvePtColumn(const ProvenanceTable& pt, const std::string& relation,
                            const std::string& attribute) {
  if (!relation.empty()) {
    int c = pt.FindColumn(relation, attribute);
    if (c >= 0) return c;
    return Status::BindError(Format("PT has no column for %s.%s",
                                    relation.c_str(), attribute.c_str()));
  }
  for (const auto& rel : pt.relations) {
    int c = pt.FindColumn(rel, attribute);
    if (c >= 0) return c;
  }
  return Status::BindError(Format("PT has no column for attribute '%s'",
                                  attribute.c_str()));
}

/// Scalar per-edge index for the reference path: flat multimap of canonical
/// row-key hashes over the non-null-key rows, in base-row order (the shape
/// AptIndexCache stored before the typed kernel layer).
FlatMultiMap BuildReferenceIndex(const Table& base, const std::vector<int>& cols) {
  FlatMultiMap index;
  index.Reserve(base.num_rows());
  for (size_t r = 0; r < base.num_rows(); ++r) {
    if (HasNullKey(base, static_cast<int64_t>(r), cols)) continue;
    index.Insert(HashRowKey(base, static_cast<int64_t>(r), cols),
                 static_cast<int64_t>(r));
  }
  index.Finalize();
  return index;
}

/// The oracle's row copy: one type dispatch and one append per cell.
/// Production copies go through Column::Gather.
Column CopyColumnSubset(const Column& src, const std::vector<int64_t>& rows) {
  Column dst(src.type());
  dst.Reserve(rows.size());
  if (src.type() == DataType::kString) dst.AdoptDictionary(src);
  for (int64_t r : rows) {
    if (src.IsNull(r)) {
      dst.AppendNull();
      continue;
    }
    switch (src.type()) {
      case DataType::kInt64:
        dst.AppendInt(src.GetInt(r));
        break;
      case DataType::kDouble:
        dst.AppendDouble(src.GetDouble(r));
        break;
      case DataType::kString:
        dst.AppendCode(src.GetCode(r));
        break;
      default:
        dst.AppendNull();
    }
  }
  return dst;
}

}  // namespace

Result<ShardedApt> ReferenceMaterializeApt(const ProvenanceTable& pt,
                                           const std::vector<int64_t>& pt_rows,
                                           const JoinGraph& graph,
                                           const SchemaGraph& schema_graph,
                                           const Database& db,
                                           size_t row_limit) {
  // The planner's validation only: a malformed graph fails as it does in
  // MaterializeAptSharded instead of indexing out of range below.
  RETURN_NOT_OK(PlanAptSteps(graph, schema_graph).status());
  ShardedApt apt;
  apt.pt_rows_used = pt_rows;
  apt.num_pt_columns = pt.table.schema().num_columns();

  // Start: PT restricted to the requested rows.
  Schema cur_schema;
  for (const auto& c : pt.table.schema().columns()) {
    RETURN_NOT_OK(cur_schema.AddColumn(c.name, c.type, c.mining_excluded));
  }
  std::vector<Column> cur_cols;
  cur_cols.reserve(pt.table.num_columns());
  for (size_t c = 0; c < pt.table.num_columns(); ++c) {
    cur_cols.push_back(CopyColumnSubset(pt.table.column(c), pt_rows));
  }
  Table cur("APT", std::move(cur_schema), std::move(cur_cols), pt_rows.size());
  std::vector<int32_t> cur_pt(pt_rows.size());
  std::iota(cur_pt.begin(), cur_pt.end(), 0);

  // Node state: column offset of each context node once joined.
  std::vector<int> node_offset(graph.nodes().size(), -1);
  std::vector<bool> joined(graph.nodes().size(), false);
  joined[0] = true;
  std::vector<bool> edge_done(graph.edges().size(), false);

  auto resolve_side = [&](int node, const std::string& pt_rel,
                          const std::string& attr) -> Result<int> {
    if (graph.nodes()[node].is_pt) {
      return ResolvePtColumn(pt, pt_rel, attr);
    }
    ASSIGN_OR_RETURN(TablePtr base, db.GetTable(graph.nodes()[node].relation));
    int c = base->schema().FindColumn(attr);
    if (c < 0) {
      return Status::BindError(
          Format("relation '%s' has no attribute '%s'",
                 graph.nodes()[node].relation.c_str(), attr.c_str()));
    }
    return node_offset[node] + c;
  };

  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t ei = 0; ei < graph.edges().size(); ++ei) {
      if (edge_done[ei]) continue;
      const JoinGraphEdge& e = graph.edges()[ei];
      bool a_in = joined[e.node_a];
      bool b_in = joined[e.node_b];
      if (!a_in && !b_in) continue;
      const SchemaEdge& se = schema_graph.edges()[e.schema_edge];
      const JoinConditionDef& cond = se.conditions[e.condition];
      edge_done[ei] = true;
      progress = true;

      if (a_in && b_in) {
        // Cycle-closing edge: filter rows where both sides agree.
        std::vector<int> cols_a, cols_b;
        for (const auto& p : cond.pairs) {
          const std::string& attr_a = e.a_plays_left ? p.left : p.right;
          const std::string& attr_b = e.a_plays_left ? p.right : p.left;
          ASSIGN_OR_RETURN(int ca, resolve_side(e.node_a, e.pt_relation, attr_a));
          ASSIGN_OR_RETURN(int cb, resolve_side(e.node_b, e.pt_relation, attr_b));
          cols_a.push_back(ca);
          cols_b.push_back(cb);
        }
        std::vector<int64_t> keep;
        for (size_t r = 0; r < cur.num_rows(); ++r) {
          if (RowKeysEqual(cur, static_cast<int64_t>(r), cols_a, cur,
                           static_cast<int64_t>(r), cols_b)) {
            keep.push_back(static_cast<int64_t>(r));
          }
        }
        std::vector<Column> next_cols;
        next_cols.reserve(cur.num_columns());
        Schema next_schema;
        for (size_t c = 0; c < cur.num_columns(); ++c) {
          RETURN_NOT_OK(next_schema.AddColumn(cur.schema().column(c).name,
                                              cur.schema().column(c).type,
                                              cur.schema().column(c).mining_excluded));
          next_cols.push_back(CopyColumnSubset(cur.column(c), keep));
        }
        std::vector<int32_t> next_pt;
        next_pt.reserve(keep.size());
        for (int64_t r : keep) next_pt.push_back(cur_pt[r]);
        cur = Table("APT", std::move(next_schema), std::move(next_cols),
                    keep.size());
        cur_pt = std::move(next_pt);
        continue;
      }

      // Tree edge: join in the new relation.
      int in_node = a_in ? e.node_a : e.node_b;
      int new_node = a_in ? e.node_b : e.node_a;
      const JoinGraphNode& nn = graph.nodes()[new_node];
      ASSIGN_OR_RETURN(TablePtr base, db.GetTable(nn.relation));

      bool in_is_left = (in_node == e.node_a) == e.a_plays_left;
      JoinKeySpec keys;
      for (const auto& p : cond.pairs) {
        const std::string& in_attr = in_is_left ? p.left : p.right;
        const std::string& new_attr = in_is_left ? p.right : p.left;
        ASSIGN_OR_RETURN(int ci, resolve_side(in_node, e.pt_relation, in_attr));
        int cn = base->schema().FindColumn(new_attr);
        if (cn < 0) {
          return Status::BindError(Format("relation '%s' has no attribute '%s'",
                                          nn.relation.c_str(), new_attr.c_str()));
        }
        keys.left_cols.push_back(ci);
        keys.right_cols.push_back(cn);
      }

      // Probe a per-edge index on the context relation with the current
      // APT rows, preserving the APT row order.
      const FlatMultiMap index = BuildReferenceIndex(*base, keys.right_cols);
      std::vector<std::pair<int64_t, int64_t>> matches;
      for (size_t l = 0; l < cur.num_rows(); ++l) {
        uint64_t h = HashRowKey(cur, static_cast<int64_t>(l), keys.left_cols);
        index.ForEach(h, [&](int64_t r) {
          if (RowKeysEqual(cur, static_cast<int64_t>(l), keys.left_cols, *base,
                           r, keys.right_cols)) {
            matches.emplace_back(static_cast<int64_t>(l), r);
          }
        });
        if (row_limit > 0 && matches.size() > row_limit) {
          return Status::OutOfRange(
              Format("APT exceeds row limit %zu for join graph %s", row_limit,
                     graph.Describe().c_str()));
        }
      }

      Schema next_schema;
      for (const auto& c : cur.schema().columns()) {
        RETURN_NOT_OK(next_schema.AddColumn(c.name, c.type, c.mining_excluded));
      }
      node_offset[new_node] = static_cast<int>(cur.num_columns());
      for (const auto& c : base->schema().columns()) {
        // A context copy of a query relation re-exposes the group-by
        // attributes (e.g. game.season when grouping by season); the paper's
        // Section 2.5 exclusion applies to them as well.
        bool excluded = c.mining_excluded;
        for (const auto& [rel, attr] : pt.group_by_source_attrs) {
          if (rel == nn.relation && attr == c.name) excluded = true;
        }
        RETURN_NOT_OK(next_schema.AddColumn(nn.label + "." + c.name, c.type,
                                            excluded));
      }

      std::vector<int64_t> lrows, rrows;
      lrows.reserve(matches.size());
      rrows.reserve(matches.size());
      for (const auto& [l, r] : matches) {
        lrows.push_back(l);
        rrows.push_back(r);
      }
      std::vector<Column> next_cols;
      next_cols.reserve(next_schema.num_columns());
      for (size_t c = 0; c < cur.num_columns(); ++c) {
        next_cols.push_back(CopyColumnSubset(cur.column(c), lrows));
      }
      for (size_t c = 0; c < base->num_columns(); ++c) {
        next_cols.push_back(CopyColumnSubset(base->column(c), rrows));
      }
      std::vector<int32_t> next_pt;
      next_pt.reserve(matches.size());
      for (int64_t l : lrows) next_pt.push_back(cur_pt[l]);
      cur = Table("APT", std::move(next_schema), std::move(next_cols),
                  matches.size());
      cur_pt = std::move(next_pt);
      joined[new_node] = true;
    }
  }

  for (size_t v = 0; v < graph.nodes().size(); ++v) {
    if (!joined[v]) {
      return Status::InvalidArgument(
          "join graph is disconnected: node '" + graph.nodes()[v].label +
          "' unreachable from PT");
    }
  }

  // Pattern-eligible columns: all except the query's group-by attributes and
  // columns flagged mining_excluded (dates, surrogate keys).
  for (size_t c = 0; c < cur.num_columns(); ++c) {
    if (cur.schema().column(c).mining_excluded) continue;
    bool excluded = false;
    for (int g : pt.group_by_pt_cols) {
      if (static_cast<size_t>(g) == c) {
        excluded = true;
        break;
      }
    }
    if (!excluded) apt.pattern_cols.push_back(static_cast<int>(c));
  }

  apt.total_rows = cur.num_rows();
  AptShard shard;
  shard.table = std::move(cur);
  shard.pt_row = std::move(cur_pt);
  shard.pt_end = pt_rows.size();
  apt.shards.push_back(std::move(shard));
  return apt;
}

}  // namespace cajade
