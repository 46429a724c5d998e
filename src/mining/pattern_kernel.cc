#include "src/mining/pattern_kernel.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/mining/coverage.h"

namespace cajade {

namespace {

/// Multiplier that gathers the low bit of each of 8 bytes into the top byte
/// of the product: byte i (LSB first) lands on bit i.
constexpr uint64_t kPackMul = 0x0102040810204080ull;

/// Packs 64 bytes, each 0 or 1, into one word with bit i = b[i].
inline uint64_t PackBoolBytes(const uint8_t* b) {
  uint64_t out = 0;
  for (int k = 0; k < 8; ++k) {
    uint64_t chunk;
    std::memcpy(&chunk, b + 8 * k, sizeof(chunk));
    out |= ((chunk * kPackMul) >> 56) << (8 * k);
  }
  return out;
}

/// Evaluates one full 64-row chunk at `base` into a selection word: the
/// branch-free compare fills a 0/1 byte per row (auto-vectorizable), the
/// multiply-pack folds 8 bytes to 8 bits at a time, and NULLs (when the
/// column has any) fold in by AND-NOT of the packed null bytes. A null
/// `nulls` pointer is the null-free-chunk fast path.
template <typename Cmp>
inline uint64_t EvalFullWord(size_t base, const uint8_t* nulls, Cmp&& cmp) {
  alignas(64) uint8_t bytes[64];
  for (size_t i = 0; i < 64; ++i) {
    bytes[i] = static_cast<uint8_t>(cmp(base + i));
  }
  uint64_t m = PackBoolBytes(bytes);
  if (nulls != nullptr) m &= ~PackBoolBytes(nulls + base);
  return m;
}

/// Tail chunk (n < 64 rows); bits at and beyond n stay zero.
template <typename Cmp>
inline uint64_t EvalTailWord(size_t base, size_t n, const uint8_t* nulls,
                             Cmp&& cmp) {
  uint64_t m = 0;
  for (size_t i = 0; i < n; ++i) {
    bool ok = cmp(base + i);
    if (nulls != nullptr) ok = ok && nulls[base + i] == 0;
    m |= uint64_t{ok} << i;
  }
  return m;
}

/// Dispatches one predicate to its typed value-only compare (the null check
/// is folded in separately by the mask loops). Must not be called for
/// kNever — EvalMask special-cases it first.
template <typename Body>
inline void DispatchValueTest(const CompiledPredicate& p, Body&& body) {
  using Kind = CompiledPredicate::Kind;
  switch (p.kind) {
    case Kind::kIntEq:
      body([ints = p.ints, c = p.inum](size_t r) { return ints[r] == c; });
      break;
    case Kind::kIntLe:
      body([ints = p.ints, c = p.inum](size_t r) { return ints[r] <= c; });
      break;
    case Kind::kIntGe:
      body([ints = p.ints, c = p.inum](size_t r) { return ints[r] >= c; });
      break;
    case Kind::kDoubleEq:
      body([vals = p.doubles, c = p.num](size_t r) { return vals[r] == c; });
      break;
    case Kind::kDoubleLe:
      body([vals = p.doubles, c = p.num](size_t r) { return vals[r] <= c; });
      break;
    case Kind::kDoubleGe:
      body([vals = p.doubles, c = p.num](size_t r) { return vals[r] >= c; });
      break;
    case Kind::kCodeEq:
      body([codes = p.codes, c = p.code](size_t r) { return codes[r] == c; });
      break;
    case Kind::kNever:
      break;
  }
}

/// Exact int64 bound for `ints[r] <= c` with a double constant: every int64
/// <= c iff it is <= floor(c), clamped at the int64 range edges. 2^63 is
/// exactly representable as a double, so the boundary compares are exact.
constexpr double kTwoPow63 = 9223372036854775808.0;

}  // namespace

CompiledPredicate CompiledPredicate::Compile(const PatternPredicate& pred,
                                             const Table& table) {
  CompiledPredicate out;
  const Column& col = table.column(pred.col);
  out.nulls = col.nulls().data();
  out.col_has_nulls = col.has_nulls();
  switch (col.type()) {
    case DataType::kString:
      if (pred.op != PredOp::kEq || pred.code < 0) {
        out.kind = Kind::kNever;
      } else {
        out.kind = Kind::kCodeEq;
        out.codes = col.codes().data();
        out.code = pred.code;
      }
      break;
    case DataType::kInt64: {
      out.ints = col.ints().data();
      out.num = pred.num;
      // Exact int64 threshold: an integral constant (the common case — the
      // miner quotes column values) carries over losslessly; a double
      // constant converts to the equivalent integer bound. The seed compared
      // static_cast<double>(ints[r]) against a double, silently equating
      // distinct int64s beyond 2^53.
      if (pred.value.is_int()) {
        out.inum = pred.value.AsInt();
        out.kind = pred.op == PredOp::kEq   ? Kind::kIntEq
                   : pred.op == PredOp::kLe ? Kind::kIntLe
                                            : Kind::kIntGe;
      } else {
        const double c = pred.num;
        if (std::isnan(c)) {
          out.kind = Kind::kNever;
        } else if (pred.op == PredOp::kEq) {
          if (std::floor(c) == c && c >= -kTwoPow63 && c < kTwoPow63) {
            out.kind = Kind::kIntEq;
            out.inum = static_cast<int64_t>(c);
          } else {
            out.kind = Kind::kNever;  // fractional or out-of-range: no int64
          }
        } else if (pred.op == PredOp::kLe) {
          const double f = std::floor(c);
          if (f < -kTwoPow63) {
            out.kind = Kind::kNever;  // below every int64
          } else {
            out.kind = Kind::kIntLe;
            out.inum = f >= kTwoPow63 ? INT64_MAX : static_cast<int64_t>(f);
          }
        } else {
          const double f = std::ceil(c);
          if (f >= kTwoPow63) {
            out.kind = Kind::kNever;  // above every int64
          } else {
            out.kind = Kind::kIntGe;
            out.inum = f <= -kTwoPow63 ? INT64_MIN : static_cast<int64_t>(f);
          }
        }
      }
      break;
    }
    case DataType::kDouble:
      out.doubles = col.doubles().data();
      out.num = pred.num;
      out.kind = pred.op == PredOp::kEq   ? Kind::kDoubleEq
                 : pred.op == PredOp::kLe ? Kind::kDoubleLe
                                          : Kind::kDoubleGe;
      break;
    default:
      out.kind = Kind::kNever;
  }
  return out;
}

uint64_t CompiledPredicate::EvalMask(size_t num_rows, uint64_t* out) const {
  const size_t num_words = CoverageBitmap::NumWords(num_rows);
  if (kind == Kind::kNever) {
    std::fill_n(out, num_words, uint64_t{0});
    return 0;
  }
  const uint8_t* null_bytes = col_has_nulls ? nulls : nullptr;
  uint64_t pop = 0;
  DispatchValueTest(*this, [&](auto&& cmp) {
    const size_t full = num_rows / 64;
    for (size_t w = 0; w < full; ++w) {
      const uint64_t m = EvalFullWord(w * 64, null_bytes, cmp);
      out[w] = m;
      pop += static_cast<uint64_t>(__builtin_popcountll(m));
    }
    const size_t tail = num_rows % 64;
    if (tail != 0) {
      const uint64_t m = EvalTailWord(full * 64, tail, null_bytes, cmp);
      out[full] = m;
      pop += static_cast<uint64_t>(__builtin_popcountll(m));
    }
  });
  return pop;
}

}  // namespace cajade
