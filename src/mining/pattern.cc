#include "src/mining/pattern.h"

#include <algorithm>

#include "src/common/string_util.h"

namespace cajade {

const char* PredOpToString(PredOp op) {
  switch (op) {
    case PredOp::kEq:
      return "=";
    case PredOp::kLe:
      return "<=";
    case PredOp::kGe:
      return ">=";
  }
  return "?";
}

PatternPredicate PatternPredicate::Make(const Table& apt_table, int col,
                                        PredOp op, Value value) {
  PatternPredicate p;
  p.col = col;
  p.op = op;
  if (value.is_numeric()) p.num = value.ToDouble();
  if (value.is_string() && apt_table.column(col).type() == DataType::kString) {
    p.code = apt_table.column(col).FindCode(value.AsString());
  }
  p.value = std::move(value);
  return p;
}

std::string PatternPredicate::KeyToken() const {
  return Format("%d%s%s", col, PredOpToString(op), value.ToString().c_str());
}

const PatternPredicate* Pattern::Find(int col) const {
  for (const auto& p : preds) {
    if (p.col == col) return &p;
  }
  return nullptr;
}

Pattern Pattern::Refine(PatternPredicate pred) const {
  Pattern out = *this;
  out.preds.push_back(std::move(pred));
  std::sort(out.preds.begin(), out.preds.end(),
            [](const PatternPredicate& a, const PatternPredicate& b) {
              if (a.col != b.col) return a.col < b.col;
              return static_cast<int>(a.op) < static_cast<int>(b.op);
            });
  return out;
}

bool Pattern::Matches(const Table& apt_table, size_t row) const {
  for (const auto& p : preds) {
    const Column& col = apt_table.column(p.col);
    if (col.IsNull(row)) return false;
    switch (col.type()) {
      case DataType::kString: {
        if (p.op != PredOp::kEq) return false;
        if (p.code < 0 || col.GetCode(row) != p.code) return false;
        break;
      }
      case DataType::kInt64:
      case DataType::kDouble: {
        double v = col.GetNumeric(row);
        bool ok = false;
        switch (p.op) {
          case PredOp::kEq:
            ok = v == p.num;
            break;
          case PredOp::kLe:
            ok = v <= p.num;
            break;
          case PredOp::kGe:
            ok = v >= p.num;
            break;
        }
        if (!ok) return false;
        break;
      }
      default:
        return false;
    }
  }
  return true;
}

std::string Pattern::Key() const {
  std::vector<std::string> parts;
  parts.reserve(preds.size());
  for (const auto& p : preds) parts.push_back(p.KeyToken());
  return Join(parts, "&");
}

std::string Pattern::Describe(const Table& apt_table) const {
  if (preds.empty()) return "(*)";
  std::vector<std::string> parts;
  parts.reserve(preds.size());
  for (const auto& p : preds) {
    parts.push_back(apt_table.schema().column(p.col).name +
                    PredOpToString(p.op) + p.value.ToString());
  }
  return Join(parts, " AND ");
}

}  // namespace cajade
