#include "src/exec/join.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/exec/flat_hash.h"

namespace cajade {

namespace {

// 2^63 as a double; doubles in [-2^63, 2^63) cast to int64 losslessly.
constexpr double kInt64Lo = -9223372036854775808.0;
constexpr double kInt64Hi = 9223372036854775808.0;

/// Exact INT64 == DOUBLE: the double must hold exactly that integer. Avoids
/// the seed's widen-to-double compare, under which ints differing only
/// beyond 2^53 were "equal".
inline bool IntEqualsDouble(int64_t i, double d) {
  return d >= kInt64Lo && d < kInt64Hi && d == std::floor(d) &&
         static_cast<int64_t>(d) == i;
}

/// Canonical hash of a numeric cell: integral values (from either physical
/// type) hash as their int64 — this branch also folds -0.0 and +0.0 together
/// — everything else by double bit pattern. Keeps hash-equality aligned with
/// the exact cross-type equality in KeyCellsEqual while preserving full
/// int64 precision.
inline uint64_t HashDoubleCanonical(double d) {
  if (d >= kInt64Lo && d < kInt64Hi && d == std::floor(d)) {
    return SplitMix64(static_cast<uint64_t>(static_cast<int64_t>(d)));
  }
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return SplitMix64(bits);
}

using PairVec = std::vector<std::pair<int64_t, int64_t>>;

// How many keys ahead the build/probe loops prefetch home slots.
constexpr size_t kPrefetchDistance = 16;

/// Whether a dense counting layout pays off for `range` distinct key values
/// against `n` build rows: the offsets array must stay cache-resident and
/// not dwarf the data.
inline bool DenseWorthwhile(uint64_t range, size_t n) {
  return range <= (uint64_t{1} << 22) && range <= 4 * static_cast<uint64_t>(n) + 1024;
}

/// Counting-sort layout over dense keys in [0, range): key k's rows occupy
/// rows[offsets[k] .. offsets[k+1]) in `row_at` order. `key_of(r, &key)`
/// returns false for rows that are not indexed. Returns the rows kept.
template <typename RowAt, typename KeyFn>
size_t FillDense(size_t n, uint64_t range, RowAt row_at, KeyFn key_of,
                 std::vector<int32_t>* offsets, std::vector<int64_t>* rows) {
  offsets->assign(range + 1, 0);
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t key;
    if (!key_of(row_at(i), &key)) continue;
    ++(*offsets)[static_cast<size_t>(key) + 1];
    ++kept;
  }
  for (size_t k = 1; k <= range; ++k) (*offsets)[k] += (*offsets)[k - 1];
  rows->resize(kept);
  std::vector<int32_t> cursor(offsets->begin(), offsets->end() - 1);
  for (size_t i = 0; i < n; ++i) {
    const int64_t r = row_at(i);
    uint64_t key;
    if (!key_of(r, &key)) continue;
    (*rows)[cursor[static_cast<size_t>(key)]++] = r;
  }
  return kept;
}

/// Inserts every row whose `hash_of(r, &hash)` succeeds into `flat`, in
/// `row_at` order. Hashes are staged first so the insert loop can prefetch
/// home slots ahead. Returns the rows kept.
template <typename RowAt, typename HashFn>
size_t FillFlat(size_t n, RowAt row_at, HashFn hash_of, FlatMultiMap* flat) {
  std::vector<uint64_t> hashes(n);
  std::vector<uint8_t> valid(n);
  for (size_t i = 0; i < n; ++i) valid[i] = hash_of(row_at(i), &hashes[i]) ? 1 : 0;
  flat->Reserve(n);
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i + kPrefetchDistance < n && valid[i + kPrefetchDistance]) {
      flat->Prefetch(hashes[i + kPrefetchDistance]);
    }
    if (valid[i]) {
      flat->Insert(hashes[i], row_at(i));
      ++kept;
    }
  }
  flat->Finalize();
  return kept;
}

/// Probes a dense layout, handing `emit(t, r)` every match of probe tuple
/// t. A lookup is two array reads, so keys are extracted on the fly rather
/// than staged.
template <typename KeyFn, typename EmitFn>
bool ProbeDense(size_t n_probe, size_t max_matches,
                const std::vector<int32_t>& offsets,
                const std::vector<int64_t>& rows, KeyFn key_of, EmitFn emit,
                const PairVec& out) {
  for (size_t t = 0; t < n_probe; ++t) {
    uint64_t key;
    if (!key_of(t, &key)) continue;
    const int32_t end = offsets[static_cast<size_t>(key) + 1];
    for (int32_t i = offsets[static_cast<size_t>(key)]; i < end; ++i) {
      emit(t, rows[i]);
    }
    if (max_matches > 0 && out.size() > max_matches) return false;
  }
  return true;
}

/// Probes a flat table, handing `emit(t, r)` every entry stored under probe
/// tuple t's hash. Hashes are staged first so the loop can prefetch home
/// slots ahead.
template <typename HashFn, typename EmitFn>
bool ProbeFlat(size_t n_probe, size_t max_matches, const FlatMultiMap& flat,
               HashFn hash_of, EmitFn emit, const PairVec& out) {
  std::vector<uint64_t> hashes(n_probe);
  std::vector<uint8_t> valid(n_probe);
  for (size_t t = 0; t < n_probe; ++t) valid[t] = hash_of(t, &hashes[t]) ? 1 : 0;
  for (size_t t = 0; t < n_probe; ++t) {
    if (t + kPrefetchDistance < n_probe && valid[t + kPrefetchDistance]) {
      flat.Prefetch(hashes[t + kPrefetchDistance]);
    }
    if (!valid[t]) continue;
    flat.ForEach(hashes[t], [&](int64_t r) { emit(t, r); });
    if (max_matches > 0 && out.size() > max_matches) return false;
  }
  return true;
}

}  // namespace

uint64_t HashKeyCell(const Column& col, int64_t row) {
  if (col.IsNull(row)) return 0xdeadULL;
  switch (col.type()) {
    case DataType::kInt64:
      return SplitMix64(static_cast<uint64_t>(col.GetInt(row)));
    case DataType::kDouble:
      return HashDoubleCanonical(col.GetDouble(row));
    case DataType::kString:
      return std::hash<std::string>()(col.GetString(row));
    default:
      return 0;
  }
}

bool KeyCellsEqual(const Column& a, int64_t row_a, const Column& b, int64_t row_b) {
  if (a.IsNull(row_a) || b.IsNull(row_b)) return false;  // null never joins
  if (a.type() == DataType::kInt64) {
    if (b.type() == DataType::kInt64) return a.GetInt(row_a) == b.GetInt(row_b);
    if (b.type() == DataType::kDouble) {
      return IntEqualsDouble(a.GetInt(row_a), b.GetDouble(row_b));
    }
    return false;
  }
  if (a.type() == DataType::kDouble) {
    if (b.type() == DataType::kDouble) return a.GetDouble(row_a) == b.GetDouble(row_b);
    if (b.type() == DataType::kInt64) {
      return IntEqualsDouble(b.GetInt(row_b), a.GetDouble(row_a));
    }
    return false;
  }
  if (a.type() == DataType::kString && b.type() == DataType::kString) {
    return a.GetString(row_a) == b.GetString(row_b);
  }
  return false;
}

uint64_t HashRowKey(const Table& table, int64_t row, const std::vector<int>& cols) {
  uint64_t h = kRowKeyHashSeed;
  for (int c : cols) h = CombineKeyHash(h, HashKeyCell(table.column(c), row));
  return h;
}

bool RowKeysEqual(const Table& a, int64_t row_a, const std::vector<int>& cols_a,
                  const Table& b, int64_t row_b, const std::vector<int>& cols_b) {
  for (size_t i = 0; i < cols_a.size(); ++i) {
    if (!KeyCellsEqual(a.column(cols_a[i]), row_a, b.column(cols_b[i]), row_b)) {
      return false;
    }
  }
  return true;
}

__attribute__((flatten)) std::vector<std::pair<int64_t, int64_t>> HashEquiJoin(
    const Table& left, const std::vector<int64_t>& left_rows, const Table& right,
    const std::vector<int64_t>& right_rows, const JoinKeySpec& keys,
    const TableStats* right_stats) {
  std::vector<ProbeKeyCol> probe;
  probe.reserve(keys.left_cols.size());
  for (int c : keys.left_cols) probe.push_back({&left.column(c), &left_rows});
  PairVec out;
  out.reserve(left_rows.size());
  // Matches leave as left row ids, not probe indexes: no second pass over
  // the output.
  JoinBuildIndex(right, keys.right_cols, right_stats, &right_rows)
      .ProbeEach(probe, left_rows.size(), /*max_matches=*/0, out,
                 [&](size_t t, int64_t r) { out.emplace_back(left_rows[t], r); });
  return out;
}

// ---- JoinBuildIndex ---------------------------------------------------------

/// Resolved probe-side access for one key column of one Probe() call. The
/// typed plan is build-only, so how a probe column feeds the packed key —
/// direct int, integral-double, shared dictionary codes, or a per-call
/// remap into the build code space — is decided here, per call.
struct JoinBuildIndex::ProbeColView {
  enum class Mode { kInt, kIntFromDouble, kCode, kCodeRemap };
  Mode mode = Mode::kInt;
  const Column* col = nullptr;
  const std::vector<int64_t>* rows = nullptr;
  /// kCodeRemap: probe dictionary code -> build code, -1 = value absent
  /// from the build dictionary (such probe cells can never match).
  std::vector<int32_t> remap;
};

// `flatten` on the constructor, Probe() and HashEquiJoin() forces the key
// extractors and emitters into the scan loops: at -O3 GCC's inline budget
// otherwise gives out partway down (ProbeEach -> ProbeDense -> lambdas),
// leaving per-row work as outlined calls. Without it, probing 10,000
// single-INT64-key tuples took 1.5x as long.
__attribute__((flatten)) JoinBuildIndex::JoinBuildIndex(
    const Table& build, std::vector<int> build_cols,
    const TableStats* build_stats, const std::vector<int64_t>* rows)
    : build_(&build), cols_(std::move(build_cols)) {
  const size_t n = rows != nullptr ? rows->size() : build.num_rows();
  const size_t k = cols_.size();
  if (n == 0 || k == 0) return;  // kEmpty
  // Stale statistics (row count or arity drift) are worse than none.
  if (build_stats != nullptr &&
      (build_stats->num_rows != build.num_rows() ||
       build_stats->columns.size() != build.num_columns())) {
    build_stats = nullptr;
  }
  const int64_t* subset = rows != nullptr ? rows->data() : nullptr;
  auto row_at = [subset](size_t i) {
    return subset != nullptr ? subset[i] : static_cast<int64_t>(i);
  };

  // Typed plan from the build side alone: INT64 offsets from the build
  // minimum, STRING columns keyed by the build dictionary.
  bool typed = true;
  bool range_known = true;
  plans_.assign(k, ColPlan{});
  unsigned __int128 total = 1;
  for (size_t i = 0; i < k && typed; ++i) {
    const Column& bc = build.column(cols_[i]);
    ColPlan& p = plans_[i];
    if (bc.type() == DataType::kInt64) {
      bool have_range = false;
      if (build_stats != nullptr) {
        const ColumnStats& cs = build_stats->columns[cols_[i]];
        if (cs.has_int_range) {
          p.min = cs.int_min;
          p.max = cs.int_max;
          have_range = true;
        } else if (cs.null_count == build.num_rows()) {
          return;  // every key cell null: nothing indexable (kEmpty)
        }
      }
      if (!have_range) {
        bool any = false;
        int64_t mn = 0, mx = 0;
        for (size_t j = 0; j < n; ++j) {
          const int64_t r = row_at(j);
          if (bc.IsNull(r)) continue;
          int64_t v = bc.GetInt(r);
          if (!any) {
            mn = mx = v;
            any = true;
          } else {
            mn = std::min(mn, v);
            mx = std::max(mx, v);
          }
        }
        if (!any) return;  // kEmpty
        p.min = mn;
        p.max = mx;
      }
      // Unsigned width so full-span columns wrap to 0 (= 2^64) instead of
      // overflowing.
      p.range = static_cast<uint64_t>(p.max) - static_cast<uint64_t>(p.min) + 1;
      if (p.range == 0) {
        if (k != 1) {
          typed = false;  // cannot pack a full-span column with others
        } else {
          range_known = false;
        }
      }
    } else if (bc.type() == DataType::kString) {
      p.dict = true;
      const size_t key_space = bc.dict_size();
      if (key_space == 0) return;  // no string ever interned: all null (kEmpty)
      p.min = 0;
      p.max = static_cast<int64_t>(key_space) - 1;
      p.range = key_space;
    } else {
      typed = false;  // DOUBLE keys: canonical hash+verify path
    }
    if (typed && range_known) {
      total *= p.range;
      if (total > static_cast<unsigned __int128>(UINT64_MAX)) typed = false;
    }
  }

  if (!typed) {
    layout_ = Layout::kGeneric;
    size_ = FillFlat(
        n, row_at,
        [&](int64_t r, uint64_t* hash) {
          if (HasNullKey(build, r, cols_)) return false;
          *hash = HashRowKey(build, r, cols_);
          return true;
        },
        &flat_);
    return;
  }

  uint64_t stride = 1;
  for (size_t i = 0; i < k; ++i) {
    plans_[i].stride = stride;
    stride *= plans_[i].range;  // harmless wrap on the last column
  }
  if (range_known) total_range_ = static_cast<uint64_t>(total);
  layout_ = range_known && DenseWorthwhile(total_range_, n) ? Layout::kDense
                                                            : Layout::kTyped;
  auto fill = [&](auto key_of) {
    if (layout_ == Layout::kDense) {
      size_ = FillDense(n, total_range_, row_at, key_of, &dense_offsets_,
                        &dense_rows_);
      return;
    }
    size_ = FillFlat(
        n, row_at,
        [&](int64_t r, uint64_t* hash) {
          uint64_t key;
          if (!key_of(r, &key)) return false;
          *hash = SplitMix64(key);
          return true;
        },
        &flat_);
  };
  const Column& c0 = build.column(cols_[0]);
  if (k == 1 && plans_[0].dict) {
    // Single STRING key: the build code is the key.
    const std::vector<int32_t>& codes = c0.codes();
    fill([&](int64_t r, uint64_t* key) {
      if (c0.IsNull(r)) return false;
      *key = static_cast<uint64_t>(static_cast<uint32_t>(codes[r]));
      return true;
    });
  } else if (k == 1) {
    // Single INT64 key: the offset from the build minimum is the key.
    const std::vector<int64_t>& vals = c0.ints();
    const auto mn = static_cast<uint64_t>(plans_[0].min);
    fill([&](int64_t r, uint64_t* key) {
      if (c0.IsNull(r)) return false;
      *key = static_cast<uint64_t>(vals[r]) - mn;
      return true;
    });
  } else {
    fill([&](int64_t r, uint64_t* key) {
      uint64_t packed = 0;
      for (size_t i = 0; i < k; ++i) {
        const Column& bc = build.column(cols_[i]);
        if (bc.IsNull(r)) return false;  // null keys are never indexed
        const ColPlan& p = plans_[i];
        const uint64_t off =
            p.dict ? static_cast<uint64_t>(static_cast<uint32_t>(bc.GetCode(r)))
                   : static_cast<uint64_t>(bc.GetInt(r)) -
                         static_cast<uint64_t>(p.min);
        packed += off * p.stride;
      }
      *key = packed;
      return true;
    });
  }
}

__attribute__((flatten)) bool JoinBuildIndex::Probe(
    const std::vector<ProbeKeyCol>& probe, size_t n_probe, size_t max_matches,
    PairVec* out) const {
  return ProbeEach(probe, n_probe, max_matches, *out,
                   [out](size_t t, int64_t r) {
                     out->emplace_back(static_cast<int64_t>(t), r);
                   });
}

template <typename EmitFn>
bool JoinBuildIndex::ProbeEach(
    const std::vector<ProbeKeyCol>& probe, size_t n_probe, size_t max_matches,
    const PairVec& out, EmitFn emit) const {
  if (n_probe == 0 || layout_ == Layout::kEmpty || size_ == 0) return true;
  const size_t k = cols_.size();

  if (layout_ == Layout::kGeneric) {
    return ProbeFlat(
        n_probe, max_matches, flat_,
        [&](size_t t, uint64_t* hash) {
          uint64_t h = kRowKeyHashSeed;
          for (size_t i = 0; i < k; ++i) {
            const int64_t row = (*probe[i].rows)[t];
            if (probe[i].col->IsNull(row)) return false;  // null never matches
            h = CombineKeyHash(h, HashKeyCell(*probe[i].col, row));
          }
          *hash = h;
          return true;
        },
        [&](size_t t, int64_t r) {
          for (size_t i = 0; i < k; ++i) {
            if (!KeyCellsEqual(*probe[i].col, (*probe[i].rows)[t],
                               build_->column(cols_[i]), r)) {
              return;
            }
          }
          emit(t, r);
        },
        out);
  }

  // Typed layouts: resolve how each probe column feeds the packed key.
  std::vector<ProbeColView> views(k);
  for (size_t i = 0; i < k; ++i) {
    const Column& pc = *probe[i].col;
    ProbeColView& v = views[i];
    v.col = &pc;
    v.rows = probe[i].rows;
    if (plans_[i].dict) {
      if (pc.type() != DataType::kString) return true;  // can never match
      const Column& bc = build_->column(cols_[i]);
      if (pc.SharesDictionaryWith(bc)) {
        v.mode = ProbeColView::Mode::kCode;  // one code space (e.g. a copy)
      } else {
        v.mode = ProbeColView::Mode::kCodeRemap;
        v.remap.resize(pc.dict_size());
        for (size_t c = 0; c < v.remap.size(); ++c) {
          v.remap[c] = bc.FindCode(pc.DictEntry(static_cast<int32_t>(c)));
        }
      }
    } else {
      if (pc.type() == DataType::kInt64) {
        v.mode = ProbeColView::Mode::kInt;
      } else if (pc.type() == DataType::kDouble) {
        // Exact cross-type join: an integral double equals the int it holds.
        v.mode = ProbeColView::Mode::kIntFromDouble;
      } else {
        return true;  // STRING probe against an INT64 key: can never match
      }
    }
  }

  auto run = [&](auto key_of) {
    if (layout_ == Layout::kDense) {
      return ProbeDense(n_probe, max_matches, dense_offsets_, dense_rows_,
                        key_of, emit, out);
    }
    return ProbeFlat(
        n_probe, max_matches, flat_,
        [&](size_t t, uint64_t* hash) {
          uint64_t key;
          if (!key_of(t, &key)) return false;
          *hash = SplitMix64(key);
          return true;
        },
        emit, out);
  };

  // Single-column keys: the column arrays are hoisted out of the loops.
  if (k == 1 && views[0].mode != ProbeColView::Mode::kIntFromDouble) {
    const ProbeColView& v = views[0];
    const Column& pc = *v.col;
    const std::vector<int64_t>& prows = *v.rows;
    if (v.mode == ProbeColView::Mode::kInt) {
      const std::vector<int64_t>& vals = pc.ints();
      const int64_t mn = plans_[0].min;
      const int64_t mx = plans_[0].max;
      return run([&](size_t t, uint64_t* key) {
        const int64_t row = prows[t];
        if (pc.IsNull(row)) return false;
        const int64_t x = vals[row];
        if (x < mn || x > mx) return false;
        *key = static_cast<uint64_t>(x) - static_cast<uint64_t>(mn);
        return true;
      });
    }
    const std::vector<int32_t>& codes = pc.codes();
    if (v.mode == ProbeColView::Mode::kCode) {
      return run([&](size_t t, uint64_t* key) {
        const int64_t row = prows[t];
        if (pc.IsNull(row)) return false;
        *key = static_cast<uint64_t>(static_cast<uint32_t>(codes[row]));
        return true;
      });
    }
    const std::vector<int32_t>& remap = v.remap;
    return run([&](size_t t, uint64_t* key) {
      const int64_t row = prows[t];
      if (pc.IsNull(row)) return false;
      const int32_t code = remap[codes[row]];
      if (code < 0) return false;  // value absent from the build space
      *key = static_cast<uint64_t>(static_cast<uint32_t>(code));
      return true;
    });
  }

  return run([&](size_t t, uint64_t* key) {
    uint64_t packed = 0;
    for (size_t i = 0; i < k; ++i) {
      const ProbeColView& v = views[i];
      const ColPlan& p = plans_[i];
      const int64_t row = (*v.rows)[t];
      if (v.col->IsNull(row)) return false;  // null probe keys never match
      uint64_t off = 0;
      switch (v.mode) {
        case ProbeColView::Mode::kInt: {
          const int64_t x = v.col->GetInt(row);
          if (x < p.min || x > p.max) return false;
          off = static_cast<uint64_t>(x) - static_cast<uint64_t>(p.min);
          break;
        }
        case ProbeColView::Mode::kIntFromDouble: {
          const double d = v.col->GetDouble(row);
          if (!(d >= kInt64Lo && d < kInt64Hi && d == std::floor(d))) {
            return false;  // non-integral double never equals an int64
          }
          const int64_t x = static_cast<int64_t>(d);
          if (x < p.min || x > p.max) return false;
          off = static_cast<uint64_t>(x) - static_cast<uint64_t>(p.min);
          break;
        }
        case ProbeColView::Mode::kCode:
          off = static_cast<uint64_t>(
              static_cast<uint32_t>(v.col->GetCode(row)));
          break;
        case ProbeColView::Mode::kCodeRemap: {
          const int32_t code = v.remap[v.col->GetCode(row)];
          if (code < 0) return false;  // value absent from the build space
          off = static_cast<uint64_t>(static_cast<uint32_t>(code));
          break;
        }
      }
      packed += off * p.stride;
    }
    *key = packed;
    return true;
  });
}

size_t JoinBuildIndex::ApproxBytes() const {
  return plans_.capacity() * sizeof(ColPlan) +
         cols_.capacity() * sizeof(int) +
         dense_offsets_.capacity() * sizeof(int32_t) +
         dense_rows_.capacity() * sizeof(int64_t) + flat_.ApproxBytes();
}

}  // namespace cajade
