#include "src/storage/column.h"

#include "src/common/string_util.h"

namespace cajade {

void Column::Reserve(size_t n) {
  nulls_.reserve(n);
  switch (type_) {
    case DataType::kInt64:
      ints_.reserve(n);
      break;
    case DataType::kDouble:
      doubles_.reserve(n);
      break;
    case DataType::kString:
      codes_.reserve(n);
      break;
    default:
      break;
  }
}

void Column::AppendInt(int64_t v) {
  ints_.push_back(v);
  nulls_.push_back(0);
}

void Column::AppendDouble(double v) {
  doubles_.push_back(v);
  nulls_.push_back(0);
}

void Column::AppendString(const std::string& v) {
  codes_.push_back(InternString(v));
  nulls_.push_back(0);
}

void Column::AppendCode(int32_t code) {
  codes_.push_back(code);
  nulls_.push_back(0);
}

void Column::AppendNull() {
  switch (type_) {
    case DataType::kInt64:
      ints_.push_back(0);
      break;
    case DataType::kDouble:
      doubles_.push_back(0.0);
      break;
    case DataType::kString:
      codes_.push_back(-1);
      break;
    default:
      break;
  }
  nulls_.push_back(1);
  ++null_count_;
}

Status Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case DataType::kInt64:
      if (v.is_int()) {
        AppendInt(v.AsInt());
        return Status::OK();
      }
      if (v.is_double()) {
        // The cast is undefined outside [-2^63, 2^63), NaN included.
        const double d = v.AsDouble();
        if (!(d >= -0x1p63 && d < 0x1p63)) {
          return Status::InvalidArgument(
              Format("DOUBLE value %g is outside the INT64 range", d));
        }
        AppendInt(static_cast<int64_t>(d));
        return Status::OK();
      }
      break;
    case DataType::kDouble:
      if (v.is_numeric()) {
        AppendDouble(v.ToDouble());
        return Status::OK();
      }
      break;
    case DataType::kString:
      if (v.is_string()) {
        AppendString(v.AsString());
        return Status::OK();
      }
      break;
    default:
      break;
  }
  return Status::InvalidArgument(
      Format("cannot append %s value to %s column",
             DataTypeToString(v.type()), DataTypeToString(type_)));
}

namespace {

/// out[i] = in[rows[i]], or `null_value` where the source row is NULL
/// (`nulls` is null when the source has no NULLs).
template <typename T>
void GatherValues(const std::vector<T>& in, const uint8_t* nulls,
                  const std::vector<int64_t>& rows, T null_value,
                  std::vector<T>* out) {
  const size_t n = rows.size();
  out->resize(n);
  T* dst = out->data();
  const T* src = in.data();
  const int64_t* idx = rows.data();
  if (nulls == nullptr) {
    for (size_t i = 0; i < n; ++i) dst[i] = src[idx[i]];
  } else {
    for (size_t i = 0; i < n; ++i) {
      dst[i] = nulls[idx[i]] != 0 ? null_value : src[idx[i]];
    }
  }
}

}  // namespace

Column Column::Gather(const std::vector<int64_t>& rows) const {
  const size_t n = rows.size();
  Column out(type_);
  out.nulls_.resize(n);  // zero-filled: no NULLs unless copied below
  const uint8_t* nulls = nullptr;
  if (null_count_ != 0) {
    nulls = nulls_.data();
    size_t count = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint8_t b = nulls[rows[i]];
      out.nulls_[i] = b;
      count += b;
    }
    out.null_count_ = count;
  }
  switch (type_) {
    case DataType::kInt64:
      GatherValues(ints_, nulls, rows, int64_t{0}, &out.ints_);
      break;
    case DataType::kDouble:
      GatherValues(doubles_, nulls, rows, 0.0, &out.doubles_);
      break;
    case DataType::kString:
      out.dict_ = dict_;
      GatherValues(codes_, nulls, rows, int32_t{-1}, &out.codes_);
      break;
    default:  // a kNull column holds only NULLs
      out.nulls_.assign(n, 1);
      out.null_count_ = n;
      break;
  }
  return out;
}

Value Column::GetValue(size_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (type_) {
    case DataType::kInt64:
      return Value(ints_[row]);
    case DataType::kDouble:
      return Value(doubles_[row]);
    case DataType::kString:
      return Value(GetString(row));
    default:
      return Value::Null();
  }
}

std::shared_ptr<Column::Dictionary::Rep> Column::Dictionary::Share() const {
  if (rep_ != nullptr) rep_->shared.store(true, std::memory_order_relaxed);
  return rep_;
}

int32_t Column::Dictionary::Find(const std::string& s) const {
  if (rep_ == nullptr) return -1;
  auto it = rep_->index.find(s);
  return it == rep_->index.end() ? -1 : it->second;
}

int32_t Column::Dictionary::Intern(const std::string& s) {
  int32_t code = Find(s);
  if (code >= 0) return code;
  // Only copies of this handle set `shared`, and under the single-writer
  // contract those copies happen-before this write, so relaxed suffices.
  if (rep_ == nullptr) {
    rep_ = std::make_shared<Rep>();
  } else if (rep_->shared.load(std::memory_order_relaxed)) {
    auto clone = std::make_shared<Rep>();
    clone->entries = rep_->entries;
    clone->index = rep_->index;
    clone->string_bytes = rep_->string_bytes;
    rep_ = std::move(clone);
  }
  code = static_cast<int32_t>(rep_->entries.size());
  rep_->entries.push_back(s);
  rep_->index.emplace(s, code);
  rep_->string_bytes += s.size();
  return code;
}

}  // namespace cajade
