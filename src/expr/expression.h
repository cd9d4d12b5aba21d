// Scalar expression IR with a vectorized interpreter.
//
// Expressions are the parameters of Select/Project plan nodes. The
// recycler compares them by key (Expr::AppendKey): an injective binary
// image in which a column reference is its ordinal in the input it reads
// (see PlanNode::AppendParamKey in plan/plan.h and Recycler::MatchOne in
// recycler/recycler_match.cc). DecodeExprOrdinal reads such a key back.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/table.h"

namespace recycledb {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Mapping from one column-name space to another (the renaming plan
/// rewrites of the canonicalizer and the proactive strategies).
using NameMap = std::map<std::string, std::string>;

/// Bound values for named parameter placeholders ($name -> Datum).
using ParamMap = std::map<std::string, Datum>;

/// Expression node kinds.
enum class ExprKind : uint8_t {
  kColumnRef,  // reference to an input column by name
  kLiteral,    // constant Datum
  kParam,      // named placeholder ($name) awaiting a bound value
  kCompare,    // = != < <= > >=
  kLogical,    // AND OR NOT
  kArith,      // + - * /
  kFunc,       // named scalar function (year, month, bin, ...)
  kCase,       // CASE WHEN c THEN a ELSE b END
  kInList,     // e IN (v1, v2, ...)
  kLike,       // string match: contains / prefix / suffix
};

enum class LogicalOp : uint8_t { kAnd, kOr, kNot };
enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv };

/// String-match flavors for kLike (LIKE '%x%', 'x%', '%x').
enum class LikeKind : uint8_t { kContains, kPrefix, kSuffix, kNotContains };

/// An immutable scalar expression tree.
///
/// Build with the static factory functions; evaluate against a Batch with
/// Eval() after CheckType() accepted the tree over the batch's schema.
class Expr : public std::enable_shared_from_this<Expr> {
 public:
  // ---- factories -----------------------------------------------------
  static ExprPtr Column(std::string name);
  static ExprPtr Literal(Datum value);
  /// Named placeholder for a prepared-statement parameter. The expression
  /// cannot be bound or evaluated until SubstituteParams replaces it with
  /// a literal.
  static ExprPtr Param(std::string name);
  static ExprPtr Compare(CompareOp op, ExprPtr l, ExprPtr r);
  static ExprPtr And(ExprPtr l, ExprPtr r);
  static ExprPtr Or(ExprPtr l, ExprPtr r);
  static ExprPtr Not(ExprPtr e);
  static ExprPtr Arith(ArithOp op, ExprPtr l, ExprPtr r);
  static ExprPtr Func(std::string name, std::vector<ExprPtr> args);
  static ExprPtr Case(ExprPtr cond, ExprPtr then_e, ExprPtr else_e);
  static ExprPtr In(ExprPtr e, std::vector<Datum> values);
  static ExprPtr Like(LikeKind kind, ExprPtr e, std::string pattern);

  // Convenience comparison builders against literals.
  static ExprPtr Eq(ExprPtr l, ExprPtr r) { return Compare(CompareOp::kEq, l, r); }
  static ExprPtr Ne(ExprPtr l, ExprPtr r) { return Compare(CompareOp::kNe, l, r); }
  static ExprPtr Lt(ExprPtr l, ExprPtr r) { return Compare(CompareOp::kLt, l, r); }
  static ExprPtr Le(ExprPtr l, ExprPtr r) { return Compare(CompareOp::kLe, l, r); }
  static ExprPtr Gt(ExprPtr l, ExprPtr r) { return Compare(CompareOp::kGt, l, r); }
  static ExprPtr Ge(ExprPtr l, ExprPtr r) { return Compare(CompareOp::kGe, l, r); }

  // ---- accessors ------------------------------------------------------
  ExprKind kind() const { return kind_; }
  const std::string& column_name() const { return name_; }
  const std::string& param_name() const { return name_; }
  const Datum& literal() const { return literal_; }
  CompareOp compare_op() const { return compare_op_; }
  LogicalOp logical_op() const { return logical_op_; }
  ArithOp arith_op() const { return arith_op_; }
  const std::string& func_name() const { return name_; }
  LikeKind like_kind() const { return like_kind_; }
  const std::string& like_pattern() const { return name_; }
  const std::vector<Datum>& in_values() const { return in_values_; }
  const std::vector<ExprPtr>& children() const { return children_; }

  // ---- analysis -------------------------------------------------------
  /// The typing rule: checks this tree against `input` and on success
  /// sets `*out` (optional) to its result type. Unknown columns or
  /// functions, unbound parameters, NULL literals and operand type
  /// mismatches yield InvalidArgument. PlanNode::DeriveSchema applies it
  /// to every expression of a plan, for both Bind and ValidatePlan.
  Status CheckType(const Schema& input, TypeId* out) const;

  /// Adds every referenced column name to `out`.
  void CollectColumns(std::set<std::string>* out) const;

  /// Adds every parameter placeholder name to `out`.
  void CollectParams(std::set<std::string>* out) const;

  /// True if the tree contains at least one kParam node.
  bool HasParams() const;

  /// Returns a copy with each kParam replaced by the literal bound under
  /// its name in `params`. Parameters missing from `params` are kept and
  /// their names appended to `missing` (when non-null). Subtrees without
  /// parameters are shared, not cloned.
  ExprPtr SubstituteParams(const ParamMap& params,
                           std::vector<std::string>* missing) const;

  /// Appends this tree's key to `out`, pre-order. Each node is its kind
  /// byte, then: a column reference as its u32 ordinal in `input` (a
  /// column `input` lacks RDB_CHECK-fails) or, without `input`, its
  /// length-prefixed name; a literal as its typed datum
  /// (AppendTypedDatum); a parameter as its length-prefixed name; an
  /// operator as its op byte (a LIKE also its length-prefixed pattern, a
  /// function its length-prefixed name, an IN list its value count and
  /// typed values), then its child count and children. Two trees have
  /// equal keys over one `input` iff they are structurally equal, and
  /// `AppendKey(&in)` equals `Positional(in)`'s key over the ordinal-named
  /// schema of `in`.
  void AppendKey(std::string* out, const Schema* input) const;
  /// AppendKey into a new string.
  std::string Key(const Schema* input) const;

  /// Returns a copy with each column reference renamed to its ordinal in
  /// `input` (OrdinalName); RDB_CHECK-fails on a column `input` lacks.
  ExprPtr Positional(const Schema& input) const;

  /// Returns a copy with column refs renamed through `mapping` (names
  /// missing from the mapping are kept).
  ExprPtr Rename(const NameMap& mapping) const;

  /// Human-readable infix rendering (columns bare, parameters as $name);
  /// used by Plan::Explain and API error messages. AppendKey() stays the
  /// canonical matching form.
  std::string DisplayString() const;

  // ---- evaluation -----------------------------------------------------
  /// Vectorized evaluation over a batch laid out per `input`.
  /// Returns a column of the CheckType(input) type with batch.num_rows
  /// rows.
  ColumnPtr Eval(const Batch& batch, const Schema& input) const;

  /// Evaluates a predicate and returns the selected row indexes.
  /// Expression must deduce to kBool.
  std::vector<int32_t> EvalSelection(const Batch& batch,
                                     const Schema& input) const;

 private:
  Expr() = default;

  ExprKind kind_ = ExprKind::kLiteral;
  std::string name_;          // column name / func name / like pattern
  Datum literal_;             // kLiteral payload
  CompareOp compare_op_ = CompareOp::kEq;
  LogicalOp logical_op_ = LogicalOp::kAnd;
  ArithOp arith_op_ = ArithOp::kAdd;
  LikeKind like_kind_ = LikeKind::kContains;
  std::vector<Datum> in_values_;
  std::vector<ExprPtr> children_;
};

/// The positional name of the column at `ordinal` of an input: "#<ordinal>".
/// A recycler-graph node's parameters name every column they read this
/// way, so they carry no query's names.
std::string OrdinalName(int ordinal);

/// A name for a temporary column: `preferred` when `taken` lacks it, else
/// `preferred` + "_" + n for the smallest n >= 1 that is free. The name
/// returned is added to `taken`, so one set threaded through a rewrite
/// keeps every temporary distinct from every name in scope.
std::string FreshName(const std::string& preferred,
                      std::set<std::string>* taken);

/// One computed output column of a projection: `expr` AS `out_name`.
struct ProjItem {
  ExprPtr expr;
  std::string out_name;
};

/// Splits a predicate into its top-level AND conjuncts.
/// Used by the tuple-subsumption rule (cached conjunct-subset detection).
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& pred);

/// Rebuilds a conjunction from conjuncts (nullptr if empty).
ExprPtr AndAll(const std::vector<ExprPtr>& conjuncts);

/// Appends `d`'s typed image to `out`: its variant index byte, then the
/// value (u8 bool, u32 int32, u64 int64, u64 double bits, or a
/// length-prefixed string). Exact: -0.0 and 0.0, and 1 as int32, int64
/// and double, all differ.
void AppendTypedDatum(const Datum& d, std::string* out);

/// Appends a column reference's key part: its u32 ordinal in `input`, or
/// its length-prefixed name when `input` is null.
void AppendColumnKey(const std::string& name, const Schema* input,
                     std::string* out);

/// Inverse of AppendKey over an input: ordinal i reads back as a
/// reference to `input_names[i]`. Restart-stable, so the spill header
/// keeps a Select's predicate in this form. Returns nullptr on malformed
/// bytes, trailing bytes or an ordinal outside `input_names`.
ExprPtr DecodeExprOrdinal(const std::string& bytes,
                          const std::vector<std::string>& input_names);

}  // namespace recycledb
