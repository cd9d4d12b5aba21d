// Range decomposition of selection predicates.
//
// Splits a predicate into per-column interval specs (`10 < x AND x < 50`
// plus arbitrary non-range conjuncts). Consumers: the recycler's
// interval index and stitching rewriter (partial reuse), the executor's
// zone-map scan pruning, and Plan::Explain's prunable-range annotation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/interval.h"
#include "expr/expression.h"

namespace recycledb {

/// A set of conjunct keys (Expr::AppendKey), sorted and without repeats,
/// with a 64-bit signature: the OR of one bit per key, chosen by the
/// key's hash. Equal keys set equal bits, so a set whose signature has a
/// bit another's lacks is not its subset; the converse needs the keys
/// (ConjunctsImplied, recycler/subsumption.h).
class ConjunctSet {
 public:
  ConjunctSet() = default;
  explicit ConjunctSet(std::vector<std::string> keys);

  /// Adds `key`; a no-op when it is already present.
  void Insert(std::string key);
  bool Contains(std::string_view key) const;
  /// The signature bit `key` sets.
  static uint64_t Bit(std::string_view key);

  const std::vector<std::string>& keys() const { return keys_; }
  uint64_t sig() const { return sig_; }
  size_t size() const { return keys_.size(); }
  bool operator==(const ConjunctSet& other) const {
    return keys_ == other.keys_;
  }

 private:
  std::vector<std::string> keys_;
  uint64_t sig_ = 0;
};

/// A predicate's conjuncts (SplitConjuncts) with their keys over the
/// schema they read, each taken once: `keys[i]` is `conjuncts[i]`'s.
struct KeyedConjuncts {
  std::vector<ExprPtr> conjuncts;
  std::vector<std::string> keys;
};

/// Splits `pred` (null: no conjuncts) and keys each conjunct over `input`
/// (null: names as written).
KeyedConjuncts KeyConjuncts(const ExprPtr& pred, const Schema* input);

/// `op` with its operands swapped: `a < b` reads as `b > a` (= and !=
/// are symmetric).
CompareOp MirrorOp(CompareOp op);

/// One column's range conjuncts folded into one interval.
struct ColumnRange {
  std::string column;
  ColumnInterval range;
  /// Indexes of the conjuncts folded into `range`, ascending.
  std::vector<size_t> positions;
};

/// The range rule, shared by the canonicalizer and ExtractRangeSpecs. A
/// range conjunct compares a column with an orderable literal (int32,
/// int64, double or string; not NULL or bool) by any operator but !=,
/// either way round: `5 < x` reads as `x > 5`. Equalities fold to a
/// point only `with_equalities`. Returns one entry per column, ordered
/// by name. A column whose range literals mix strings and numbers gets
/// no entry: its conjuncts stay unfolded, for validation to reject.
std::vector<ColumnRange> FoldColumnRanges(const std::vector<ExprPtr>& conjuncts,
                                          bool with_equalities);

/// A selection predicate decomposed around one ranged column: the
/// column's interval plus every remaining conjunct ("others", matched by
/// key between cached slice and query).
struct RangeSpec {
  /// Ranged column name in the predicate's own name space.
  std::string column;
  /// `column`'s ordinal in the extraction input (-1 without one): the
  /// interval index key.
  int ordinal = -1;
  /// The conjunction of all range conjuncts on `column`.
  ColumnInterval range;
  /// Non-range conjuncts, original expressions (predicate name space).
  std::vector<ExprPtr> others;
  /// Keys (Expr::AppendKey) of `others` over the extraction input, with
  /// their signature: ConjunctsImplied rejects on it before comparing keys.
  ConjunctSet other_keys;
};

/// Decomposes a selection predicate into one RangeSpec per column that
/// carries at least one range conjunct (`col < lit`, `lit <= col`, ...).
/// Every conjunct not contributing to a spec's column lands in that
/// spec's `others` — including range conjuncts on *different* columns,
/// which then must match by key like any other conjunct. Specs
/// whose interval is empty (contradictory predicate) are dropped.
/// `input` (optional) is the schema the predicate reads: it resolves
/// `ordinal`. `other_keys` come from `pred.keys`, so no conjunct is keyed
/// again however many specs it lands in.
std::vector<RangeSpec> ExtractRangeSpecs(const KeyedConjuncts& pred,
                                         const Schema* input);
/// The same over `pred`'s conjuncts, keyed only when some spec needs them
/// (a predicate without a range conjunct is never keyed).
std::vector<RangeSpec> ExtractRangeSpecs(const ExprPtr& pred,
                                         const Schema* input);

}  // namespace recycledb
