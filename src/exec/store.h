// The store operator: buffers, materializes, or passes through its input
// without interrupting the tuple flow (§II "Changes in Query Evaluation").
#pragma once

#include <deque>
#include <functional>

#include "exec/operator.h"

namespace recycledb {

/// How a store operator was configured by the rewriter.
enum class StoreMode {
  /// Materialize unconditionally (history-based decision already made).
  kMaterialize,
  /// Buffer the tuple flow and decide at run time from dynamic estimates
  /// (speculation, §III-D). Falls back to pass-through when rejected.
  kSpeculative,
};

/// Run-time estimates a speculative store hands to the decision callback.
struct SpeculationEstimate {
  double progress = 0;        // fraction of the input produced so far
  double est_cost_ms = 0;     // extrapolated total cost of the subtree
  double est_size_bytes = 0;  // extrapolated result size
  int64_t buffered_bytes = 0;
  int64_t buffered_rows = 0;
};

/// Configuration attached to a plan node by the recycler's rewrite rules;
/// the execution builder wraps the node's operator in a StoreOp.
///
/// Concurrency contract: the recycler claims the target graph node
/// (kNone -> kInFlight) *before* execution starts, so exactly one stream
/// runs the callbacks for a given node at a time. Other streams stall on
/// (or reuse) the node's materialization; `on_complete` — including the
/// abort path with a null result — MUST therefore always be invoked
/// exactly once, even when a parent stops pulling early (see Close()),
/// or stalled queries would wait out their full timeout.
struct StoreRequest {
  StoreMode mode = StoreMode::kMaterialize;
  /// Opaque recycler-graph node handle, passed back on callbacks.
  void* token = nullptr;
  /// Speculation decision: return true to keep buffering / materialize,
  /// false to abandon. Called repeatedly as estimates sharpen; the first
  /// false aborts buffering for good.
  std::function<bool(void* token, const SpeculationEstimate&)> keep_going;
  /// Called exactly once when the input is exhausted. `result` is the full
  /// materialized table when materialization completed, nullptr when
  /// speculation abandoned it. `subtree_ms` is the measured inclusive cost
  /// of the input subtree.
  std::function<void(void* token, TablePtr result, double subtree_ms)>
      on_complete;
  /// Hard cap on speculative buffering; exceeding it abandons.
  int64_t buffer_cap_bytes = 64 << 20;
  /// The cached prefix a delta stitch extends, set by the recycler for
  /// the store over UnionAll(CachedScan(prefix), delta). The input's
  /// first `prefix->num_rows()` rows must be views of the prefix's
  /// columns (checked); the store copies only the rows after them and
  /// completes with the prefix followed by those rows. Null otherwise.
  TablePtr prefix;
};

/// Store operator implementation.
///
/// kMaterialize: copies every batch into the result table while passing it
/// along (no flow interruption). With a `prefix`, the prefix's rows are
/// passed along without a copy, and the result is built once at the end
/// at its exact size (Table::WithAppended).
///
/// kSpeculative: withholds batches while undecided (the paper's
/// "temporarily buffers the tuple flow"), extrapolating cost/size from the
/// input's progress meter; on accept it keeps materializing and releases
/// the buffer downstream, on reject it releases and reverts to
/// pass-through.
class StoreOp : public Operator {
 public:
  StoreOp(OperatorPtr child, StoreRequest request);

  void Open() override;
  bool Next(Batch* out) override;
  /// Closing an unfinished store aborts the materialization (a parent —
  /// e.g. a Limit — may stop pulling before the input is exhausted; the
  /// half-built result must not be cached and the recycler must be told
  /// so it can clear the node's in-flight state).
  void Close() override;
  double Progress() const override { return child_->Progress(); }

  /// True if this store decided (or was configured) to materialize. A
  /// speculative store decides before it emits its first batch, so the
  /// value seen after the first Next() holds for the rest of the run.
  bool materializing() const { return materializing_; }

  /// The materialized table, kept after `on_complete` has offered it:
  /// non-null once the input is done and the store materialized.
  TablePtr result() const {
    return finished_ && materializing_ ? result_ : nullptr;
  }

 private:
  enum class State { kUndecided, kAccepted, kRejected };

  void FinishIfNeeded();
  /// Adds `in` to the result: a prefix batch is only checked and skipped.
  void Capture(const Batch& in);
  bool PullChild(Batch* out);
  SpeculationEstimate CurrentEstimate() const;

  OperatorPtr child_;
  StoreRequest request_;
  State state_ = State::kUndecided;
  bool materializing_ = false;
  bool finished_ = false;
  TablePtr result_;
  std::deque<Batch> buffered_;
  int64_t buffered_bytes_ = 0;
  int64_t rows_in_ = 0;  // input rows captured so far, prefix included
  double child_ms_ = 0;  // accumulated time inside child Next calls
};

}  // namespace recycledb
