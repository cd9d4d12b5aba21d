// Result: the public API's query-result handle.
//
// A Result owns (shares) the materialized result table, the per-query
// recycler trace, and — on failure — a Status. Result tables reused from
// the recycler cache are shared immutable objects, so a Result stays
// valid after the cache evicts or invalidates the entry it came from
// (see DESIGN.md "Public API & session model": lifetime rules).
#pragma once

#include <string>
#include <utility>

#include "common/status.h"
#include "exec/executor.h"
#include "recycler/recycler.h"

namespace recycledb {

/// Outcome of one query execution through the facade.
class Result {
 public:
  /// An empty (ok, zero-row) result; usable as an assignment target.
  Result() = default;

  /// A failed result carrying `status`.
  static Result Error(Status status) {
    Result r;
    r.status_ = std::move(status);
    return r;
  }

  /// A successful result wrapping an execution outcome and its trace.
  static Result Of(ExecResult exec, QueryTrace trace) {
    Result r;
    r.table_ = std::move(exec.table);
    r.total_ms_ = exec.total_ms;
    r.trace_ = std::move(trace);
    return r;
  }

  /// True unless the query failed validation or execution.
  bool ok() const { return status_.ok(); }
  /// The failure description (ok status on success).
  const Status& status() const { return status_; }

  /// The materialized result (nullptr on error). Shared ownership: stays
  /// valid independent of recycler-cache eviction.
  const TablePtr& table() const { return table_; }
  /// Row count of the result (0 on error).
  int64_t num_rows() const { return table_ == nullptr ? 0 : table_->num_rows(); }
  /// Output schema (an empty schema on error).
  const Schema& schema() const {
    static const Schema kEmpty;
    return table_ == nullptr ? kEmpty : table_->schema();
  }
  /// End-to-end execution time in milliseconds.
  double total_ms() const { return total_ms_; }

  // --- reuse accounting ------------------------------------------------
  /// The full per-query recycler trace record; its counts (num_reuses,
  /// num_cold_hits, ...) are listed in recycler/counters.h.
  const QueryTrace& trace() const { return trace_; }
  /// True if at least one cached result was consumed.
  bool recycled() const { return trace_.num_reuses > 0; }
  /// Executions of this query's template before this one (0 for ad-hoc).
  int64_t template_prior_runs() const { return trace_.template_prior_runs; }

  /// Pretty-prints up to `max_rows` rows (the status string on error).
  std::string ToString(int64_t max_rows = 20) const {
    if (!ok() || table_ == nullptr) return status_.ToString();
    return table_->ToString(max_rows);
  }

  // --- batch iteration (zero-copy column views) -------------------------
  /// A view batch of up to kDefaultBatchRows rows. Iteration shares the
  /// result columns; batches remain valid while the Result (or any other
  /// owner of the table) is alive.
  class BatchIterator {
   public:
    /// Iterator over `table` starting at row `pos`.
    BatchIterator(const Table* table, int64_t pos) : table_(table), pos_(pos) {}

    /// The current view batch (columns shared with the result table).
    Batch operator*() const {
      Batch batch;
      int64_t count =
          std::min(kDefaultBatchRows, table_->num_rows() - pos_);
      for (int c = 0; c < table_->num_columns(); ++c) {
        batch.columns.push_back(
            ColumnVector::Slice(table_->column(c), pos_, count));
      }
      batch.num_rows = count;
      return batch;
    }
    /// Advances to the next batch window.
    BatchIterator& operator++() {
      pos_ += kDefaultBatchRows;
      return *this;
    }
    /// True while this iterator has not reached `other` (the end).
    bool operator!=(const BatchIterator& other) const {
      return pos_ < other.pos_;
    }

   private:
    const Table* table_;
    int64_t pos_;
  };

  /// Range over the result's batches: `for (Batch b : result.Batches())`.
  class BatchRange {
   public:
    /// Range over the batches of `table` (may be nullptr: empty range).
    explicit BatchRange(const Table* table) : table_(table) {}
    /// Iterator at the first batch.
    BatchIterator begin() const { return BatchIterator(table_, 0); }
    /// Iterator past the last batch.
    BatchIterator end() const {
      return BatchIterator(table_, table_ == nullptr ? 0 : table_->num_rows());
    }

   private:
    const Table* table_;
  };

  BatchRange Batches() const { return BatchRange(table_.get()); }

 private:
  Status status_;
  TablePtr table_;
  double total_ms_ = 0;
  QueryTrace trace_;
};

}  // namespace recycledb
