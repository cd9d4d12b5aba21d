// Concrete physical operators: scans, filter, project, union, limit,
// sort/top-N, hash aggregate, hash join.
#pragma once

#include <queue>
#include <unordered_map>

#include "exec/operator.h"
#include "expr/aggregate.h"
#include "plan/table_function.h"

namespace recycledb {

/// Base-table (or materialized-table) scan with column pruning.
class ScanOp : public Operator {
 public:
  /// A zone-map prune hint: the scan may skip any 1024-row block whose
  /// zone on `output_column` (index into this scan's output schema)
  /// excludes `range`. Conservative metadata only — the parent filter
  /// still evaluates its full predicate, so results are bit-identical
  /// with or without hints.
  struct PruneHint {
    int output_column = 0;
    ColumnInterval range;
  };

  /// `table` must outlive the operator. `column_indices` selects and orders
  /// the emitted columns.
  ScanOp(Schema output_schema, TablePtr table, std::vector<int> column_indices);

  /// Installs prune hints (from the parent Select's range conjuncts).
  /// Must be called before Open().
  void SetPruneHints(std::vector<PruneHint> hints);

  /// Restricts the scan to table rows [begin, end) — the delta window of
  /// a delta-maintenance rewrite. `end` of -1 means "to the end of the
  /// table"; both bounds are clamped to the table size at Open(). Zone-map
  /// pruning still applies inside the window (edge blocks use the full
  /// block's zone, which is conservative). Must be called before Open().
  void SetRowWindow(int64_t begin, int64_t end);

  void Open() override;
  bool Next(Batch* out) override;
  void Close() override {}
  double Progress() const override;

 private:
  bool BlockPruned(int64_t block) const;

  TablePtr table_;
  std::vector<int> column_indices_;
  std::vector<PruneHint> hints_;
  int64_t begin_ = 0;    // requested window start
  int64_t end_ = -1;     // requested window end (-1 = table end)
  int64_t limit_ = 0;    // clamped window end, computed at Open
  int64_t pos_ = 0;
};

/// Table-valued function scan: evaluates the function at Open, streams.
class FunctionScanOp : public Operator {
 public:
  FunctionScanOp(Schema output_schema, const TableFunction* fn,
                 std::vector<Datum> args, const Catalog* catalog);

  void Open() override;
  bool Next(Batch* out) override;
  void Close() override {}
  double Progress() const override;

 private:
  const TableFunction* fn_;
  std::vector<Datum> args_;
  const Catalog* catalog_;
  TablePtr result_;
  std::vector<int> column_indices_;  // all of result_'s columns, in order
  int64_t pos_ = 0;
};

/// Filter: evaluates a predicate and gathers the selected rows.
class FilterOp : public Operator {
 public:
  FilterOp(Schema output_schema, OperatorPtr child, ExprPtr predicate);

  void Open() override { child_->Open(); }
  bool Next(Batch* out) override;
  void Close() override { child_->Close(); }
  double Progress() const override { return child_->Progress(); }

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
};

/// Project: computes expressions into a new column layout.
class ProjectOp : public Operator {
 public:
  ProjectOp(Schema output_schema, OperatorPtr child,
            std::vector<ProjItem> items);

  void Open() override { child_->Open(); }
  bool Next(Batch* out) override;
  void Close() override { child_->Close(); }
  double Progress() const override { return child_->Progress(); }

 private:
  OperatorPtr child_;
  std::vector<ProjItem> items_;
};

/// Limit: passes through the first N rows.
class LimitOp : public Operator {
 public:
  LimitOp(Schema output_schema, OperatorPtr child, int64_t n);

  void Open() override { child_->Open(); }
  bool Next(Batch* out) override;
  void Close() override { child_->Close(); }
  double Progress() const override;

 private:
  OperatorPtr child_;
  int64_t remaining_;
  int64_t n_;
};

/// Bag union: streams each child in order (positional columns).
class UnionAllOp : public Operator {
 public:
  UnionAllOp(Schema output_schema, std::vector<OperatorPtr> children);

  void Open() override;
  bool Next(Batch* out) override;
  void Close() override;
  double Progress() const override;

 private:
  std::vector<OperatorPtr> children_;
  size_t current_ = 0;
};

/// Full sort (blocking): materializes input, sorts boxed rows, streams.
class SortOp : public Operator {
 public:
  SortOp(Schema output_schema, OperatorPtr child, std::vector<SortKey> keys);

  void Open() override;
  bool Next(Batch* out) override;
  void Close() override { child_->Close(); }
  double Progress() const override;

 private:
  void Consume();

  OperatorPtr child_;
  std::vector<SortKey> keys_;
  TablePtr buffer_;
  std::vector<int64_t> order_;
  int64_t pos_ = 0;
  bool consumed_ = false;
};

/// Heap-based top-N (the paper's topN operator: O(M log N), no full sort);
/// output is emitted in sort order.
class TopNOp : public Operator {
 public:
  TopNOp(Schema output_schema, OperatorPtr child, std::vector<SortKey> keys,
         int64_t n);

  void Open() override;
  bool Next(Batch* out) override;
  void Close() override { child_->Close(); }
  double Progress() const override;

 private:
  void Consume();

  OperatorPtr child_;
  std::vector<SortKey> keys_;
  int64_t n_;
  TablePtr candidates_;        // rows currently in the heap
  std::vector<int64_t> order_; // final sorted row order into candidates_
  int64_t pos_ = 0;
  bool consumed_ = false;
};

/// Hash aggregate (blocking). With empty group_by produces exactly one row.
class HashAggOp : public Operator {
 public:
  HashAggOp(Schema output_schema, OperatorPtr child,
            std::vector<std::string> group_by, std::vector<AggItem> aggs);

  void Open() override;
  bool Next(Batch* out) override;
  void Close() override { child_->Close(); }
  double Progress() const override;

 private:
  struct AggState {
    double dsum = 0;
    int64_t isum = 0;
    int64_t count = 0;
    Datum min_v;
    Datum max_v;
  };

  void Consume();
  int64_t FindOrCreateGroup(const Batch& batch,
                            const std::vector<ColumnPtr>& key_cols,
                            int64_t row, uint64_t hash);

  OperatorPtr child_;
  std::vector<std::string> group_by_;
  std::vector<AggItem> aggs_;
  std::vector<int> group_idx_;              // group column indexes in child
  std::vector<TypeId> agg_arg_types_;

  TablePtr group_keys_;                     // one row per group
  std::vector<std::vector<AggState>> states_;  // [agg][group]
  std::unordered_multimap<uint64_t, int64_t> group_map_;
  int64_t num_groups_ = 0;
  int64_t pos_ = 0;
  bool consumed_ = false;
};

/// Hash equi-join; the right child is the build side.
///
/// The build side is one table plus a flat bucket-chained hash table over
/// its rows (stored key hashes, first_[bucket], next_[row]). Output order
/// is part of the contract: probe rows come out in input order, and the
/// matches of one probe row in descending build-row order (see DESIGN.md,
/// "Hash join").
class HashJoinOp : public Operator {
 public:
  HashJoinOp(Schema output_schema, OperatorPtr left, OperatorPtr right,
             JoinKind kind, std::vector<std::string> left_keys,
             std::vector<std::string> right_keys);

  void Open() override;
  bool Next(Batch* out) override;
  void Close() override;
  double Progress() const override { return left_->Progress(); }

 private:
  void Build();
  size_t BucketOf(uint64_t hash) const {
    return static_cast<size_t>((hash ^ (hash >> 32)) & bucket_mask_);
  }

  OperatorPtr left_, right_;
  JoinKind kind_;
  std::vector<int> left_key_idx_, right_key_idx_;
  TablePtr build_table_;
  std::vector<const ColumnVector*> build_keys_;
  // Chain of bucket b: first_[b], next_[first_[b]], ... until -1; rows
  // enter at the head in ascending order, so chains run high to low.
  std::vector<uint64_t> build_hashes_;  // key hash per build row
  std::vector<int32_t> first_;          // per bucket (power-of-two count)
  std::vector<int32_t> next_;           // per build row
  uint64_t bucket_mask_ = 0;
  // Per-batch probe buffers, reused across Next() calls.
  std::vector<uint64_t> probe_hashes_;
  std::vector<int32_t> probe_sel_, build_sel_;
  bool built_ = false;
};

}  // namespace recycledb
