// Columnar storage. Strings are dictionary-encoded so categorical pattern
// matching and grouping operate on int32 codes.
//
// Ownership and thread-safety: a Column has value semantics over its typed
// vectors. A STRING column's dictionary (entries in code order plus the
// reverse index) is one shared, immutable object: copying a Column, copying
// a Table or calling AdoptDictionary points the new column at the same
// dictionary instead of copying it, and InternString clones the dictionary
// before its first write once another column has pointed at it
// (copy-on-write). Interning into one column therefore never changes what a
// copy or an adopter reads. Concurrent const access is safe, copying and
// adopting from one column on many threads included; mutation is
// single-stream (the engine treats loaded data as immutable).

#ifndef CAJADE_STORAGE_COLUMN_H_
#define CAJADE_STORAGE_COLUMN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/common/value.h"

namespace cajade {

/// \brief A typed, nullable column of values.
///
/// INT64 and DOUBLE columns store native vectors; STRING columns store int32
/// dictionary codes plus a dictionary shared copy-on-write (see the file
/// comment). Null entries occupy a slot in the data vector (value
/// unspecified) and are flagged in the null mask.
class Column {
 public:
  explicit Column(DataType type = DataType::kInt64) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const { return nulls_.size(); }

  void Reserve(size_t n);

  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendString(const std::string& v);
  /// Appends a string by existing dictionary code (fast path for copies).
  void AppendCode(int32_t code);
  void AppendNull();
  /// Appends a Value, checking that it matches the column type (nulls are
  /// accepted by every type). A DOUBLE value for an INT64 column is
  /// truncated toward zero; NaN, infinities and values outside the int64
  /// range return InvalidArgument.
  Status AppendValue(const Value& v);

  bool IsNull(size_t row) const { return nulls_[row] != 0; }
  int64_t GetInt(size_t row) const { return ints_[row]; }
  double GetDouble(size_t row) const { return doubles_[row]; }
  /// Dictionary code of a string cell (-1 for null).
  int32_t GetCode(size_t row) const { return codes_[row]; }
  const std::string& GetString(size_t row) const { return DictEntry(codes_[row]); }

  /// Cell as a Value (allocates for strings).
  Value GetValue(size_t row) const;

  /// A new column of this type holding the cells at `rows`, in that order
  /// (rows may repeat and need not ascend). The executor's working table
  /// and every APT materialization step copy rows through it: one typed
  /// loop per vector, no per-cell type dispatch. It copies the null bytes
  /// and sums null_count; a NULL slot holds 0, 0.0 or -1 as AppendNull
  /// writes it, and every cell of a kNull column is NULL. A STRING result
  /// shares this column's dictionary object, as AdoptDictionary does.
  Column Gather(const std::vector<int64_t>& rows) const;

  /// Numeric cell widened to double. Only valid for INT64/DOUBLE columns.
  double GetNumeric(size_t row) const {
    return type_ == DataType::kInt64 ? static_cast<double>(ints_[row]) : doubles_[row];
  }

  /// Number of distinct strings seen so far (STRING columns).
  size_t dict_size() const { return dict_.size(); }
  /// Total length of the dictionary's strings, maintained on intern so byte
  /// accounting does not walk the dictionary.
  size_t dict_string_bytes() const { return dict_.string_bytes(); }
  const std::string& DictEntry(int32_t code) const { return dict_.entry(code); }
  /// Dictionary code for `s`, or -1 when absent.
  int32_t FindCode(const std::string& s) const { return dict_.Find(s); }
  /// Interns `s` into the dictionary (without appending a cell), cloning a
  /// shared dictionary first.
  int32_t InternString(const std::string& s) { return dict_.Intern(s); }

  /// Points this column at `source`'s dictionary, without copying it; used
  /// when building an output column that will receive codes from `source`.
  void AdoptDictionary(const Column& source) { dict_ = source.dict_; }
  /// Whether this column reads the same dictionary object as `other` (a
  /// copy or an adopter that has interned nothing since), so that equal
  /// codes name equal strings.
  bool SharesDictionaryWith(const Column& other) const {
    return dict_.SameAs(other.dict_);
  }

  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<int32_t>& codes() const { return codes_; }
  /// Null mask (1 = null), one byte per cell; raw input for columnar kernels.
  const std::vector<uint8_t>& nulls() const { return nulls_; }

  /// Number of null cells, maintained on append. `has_nulls()` gates the
  /// mask kernels' null-free fast path, which skips the null mask entirely.
  size_t null_count() const { return null_count_; }
  bool has_nulls() const { return null_count_ != 0; }

 private:
  /// Handle on a dictionary. Copies share the dictionary and mark it
  /// shared; Intern() clones a shared dictionary before adding to it, so a
  /// dictionary is never written once two handles have pointed at it. The
  /// mark is sticky: after every other holder is gone, the next new string
  /// still clones once. That keeps the decision free of races with holders
  /// on other threads, which reading the reference count would not be.
  class Dictionary {
   public:
    Dictionary() = default;
    Dictionary(const Dictionary& other) : rep_(other.Share()) {}
    Dictionary& operator=(const Dictionary& other) {
      rep_ = other.Share();
      return *this;
    }
    Dictionary(Dictionary&&) noexcept = default;
    Dictionary& operator=(Dictionary&&) noexcept = default;

    size_t size() const { return rep_ == nullptr ? 0 : rep_->entries.size(); }
    size_t string_bytes() const {
      return rep_ == nullptr ? 0 : rep_->string_bytes;
    }
    const std::string& entry(int32_t code) const { return rep_->entries[code]; }
    bool SameAs(const Dictionary& other) const { return rep_ == other.rep_; }
    int32_t Find(const std::string& s) const;
    int32_t Intern(const std::string& s);

   private:
    struct Rep {
      std::vector<std::string> entries;
      std::unordered_map<std::string, int32_t> index;
      size_t string_bytes = 0;
      /// Set by the first copy of a handle, never cleared. Atomic because
      /// const copies of one column may run on several threads at once.
      std::atomic<bool> shared{false};
    };

    std::shared_ptr<Rep> Share() const;

    std::shared_ptr<Rep> rep_;
  };

  DataType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<int32_t> codes_;
  std::vector<uint8_t> nulls_;
  size_t null_count_ = 0;
  Dictionary dict_;
};

}  // namespace cajade

#endif  // CAJADE_STORAGE_COLUMN_H_
