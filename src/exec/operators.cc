#include "exec/operators.h"

#include <algorithm>
#include <cstdint>

#include "common/hash.h"
#include "common/macros.h"

namespace recycledb {

Datum PadValue(TypeId type) {
  switch (type) {
    case TypeId::kBool:
      return false;
    case TypeId::kInt32:
    case TypeId::kDate:
      return static_cast<int32_t>(0);
    case TypeId::kInt64:
      return static_cast<int64_t>(0);
    case TypeId::kDouble:
      return 0.0;
    case TypeId::kString:
      return std::string();
  }
  RDB_UNREACHABLE("bad type");
}

namespace {

// Seed of every row-key hash (hash join and hash aggregate alike).
constexpr uint64_t kKeyHashSeed = 0x9e3779b97f4a7c15ULL;

// Emits O(1) views of rows [pos, pos+count) of the indexed table columns;
// the views keep the columns alive even if the table is dropped (or
// evicted from the recycler cache) mid-scan.
void EmitTableViews(const Table& table, const std::vector<int>& indices,
                    int64_t pos, int64_t count, Batch* out) {
  out->Clear();
  out->columns.reserve(indices.size());
  for (int idx : indices) {
    out->columns.push_back(ColumnVector::Slice(table.column(idx), pos, count));
  }
  out->num_rows = count;
}

}  // namespace

// ---------------------------------------------------------------------------
// ScanOp
// ---------------------------------------------------------------------------

ScanOp::ScanOp(Schema output_schema, TablePtr table,
               std::vector<int> column_indices)
    : Operator(std::move(output_schema)),
      table_(std::move(table)),
      column_indices_(std::move(column_indices)) {
  RDB_CHECK(table_ != nullptr);
}

void ScanOp::SetPruneHints(std::vector<PruneHint> hints) {
  hints_ = std::move(hints);
}

void ScanOp::SetRowWindow(int64_t begin, int64_t end) {
  RDB_CHECK_MSG(begin >= 0 && (end < 0 || end >= begin),
                "invalid scan row window");
  begin_ = begin;
  end_ = end;
}

void ScanOp::Open() {
  limit_ = end_ < 0 ? table_->num_rows() : std::min(end_, table_->num_rows());
  pos_ = std::min(begin_, limit_);
}

bool ScanOp::BlockPruned(int64_t block) const {
  // A block is skippable when any hinted column's zone excludes the
  // hint's interval (conjunctive predicate: one dead conjunct kills the
  // whole block).
  for (const PruneHint& h : hints_) {
    const ZoneMap& zm = table_->zone_map(column_indices_[h.output_column]);
    if (!zm.MayOverlap(block, h.range)) return true;
  }
  return false;
}

bool ScanOp::Next(Batch* out) {
  // pos_ stays on the table's global kZoneMapBlockRows (== kDefaultBatchRows)
  // grid: a row window whose begin is mid-block emits one short batch up to
  // the next block boundary, after which every emission is exactly one
  // zone-map block, so block pruning keeps its 1:1 block/batch mapping.
  while (pos_ < limit_) {
    int64_t block = pos_ / kZoneMapBlockRows;
    int64_t block_end = (block + 1) * kZoneMapBlockRows;
    int64_t count = std::min(block_end, limit_) - pos_;
    if (!hints_.empty() && BlockPruned(block)) {
      ++stats_.blocks_pruned;
      pos_ += count;
      continue;
    }
    ++stats_.blocks_scanned;
    EmitTableViews(*table_, column_indices_, pos_, count, out);
    pos_ += count;
    return true;
  }
  return false;
}

double ScanOp::Progress() const {
  const int64_t span = limit_ - std::min(begin_, limit_);
  if (span == 0) return 1.0;
  return static_cast<double>(pos_ - std::min(begin_, limit_)) /
         static_cast<double>(span);
}

// ---------------------------------------------------------------------------
// FunctionScanOp
// ---------------------------------------------------------------------------

FunctionScanOp::FunctionScanOp(Schema output_schema, const TableFunction* fn,
                               std::vector<Datum> args, const Catalog* catalog)
    : Operator(std::move(output_schema)),
      fn_(fn),
      args_(std::move(args)),
      catalog_(catalog) {
  RDB_CHECK(fn_ != nullptr && catalog_ != nullptr);
}

void FunctionScanOp::Open() {
  result_ = fn_->eval_fn(*catalog_, args_);
  RDB_CHECK(result_ != nullptr);
  column_indices_.clear();
  for (int i = 0; i < result_->num_columns(); ++i) column_indices_.push_back(i);
  pos_ = 0;
}

bool FunctionScanOp::Next(Batch* out) {
  if (pos_ >= result_->num_rows()) return false;
  int64_t count = std::min(kDefaultBatchRows, result_->num_rows() - pos_);
  EmitTableViews(*result_, column_indices_, pos_, count, out);
  pos_ += count;
  return true;
}

double FunctionScanOp::Progress() const {
  if (result_ == nullptr || result_->num_rows() == 0) return 1.0;
  return static_cast<double>(pos_) / static_cast<double>(result_->num_rows());
}

// ---------------------------------------------------------------------------
// FilterOp
// ---------------------------------------------------------------------------

FilterOp::FilterOp(Schema output_schema, OperatorPtr child, ExprPtr predicate)
    : Operator(std::move(output_schema)),
      child_(std::move(child)),
      predicate_(std::move(predicate)) {}

bool FilterOp::Next(Batch* out) {
  Batch in;
  while (child_->NextTimed(&in)) {
    std::vector<int32_t> sel =
        predicate_->EvalSelection(in, child_->output_schema());
    if (sel.empty()) continue;
    if (static_cast<int64_t>(sel.size()) == in.num_rows) {
      // Every row passed: forward the input batch untouched (zero copy).
      *out = std::move(in);
      return true;
    }
    InitBatch(output_schema_, out);
    for (size_t c = 0; c < in.columns.size(); ++c) {
      out->columns[c]->AppendSelected(*in.columns[c], sel);
    }
    out->num_rows = static_cast<int64_t>(sel.size());
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// ProjectOp
// ---------------------------------------------------------------------------

ProjectOp::ProjectOp(Schema output_schema, OperatorPtr child,
                     std::vector<ProjItem> items)
    : Operator(std::move(output_schema)),
      child_(std::move(child)),
      items_(std::move(items)) {}

bool ProjectOp::Next(Batch* out) {
  Batch in;
  if (!child_->NextTimed(&in)) return false;
  out->Clear();
  out->columns.reserve(items_.size());
  for (const auto& item : items_) {
    // Bare kColumnRef items forward the input column untouched (Eval
    // returns the batch's ColumnPtr, view or owned, without copying).
    out->columns.push_back(item.expr->Eval(in, child_->output_schema()));
  }
  out->num_rows = in.num_rows;
  return true;
}

// ---------------------------------------------------------------------------
// LimitOp
// ---------------------------------------------------------------------------

LimitOp::LimitOp(Schema output_schema, OperatorPtr child, int64_t n)
    : Operator(std::move(output_schema)),
      child_(std::move(child)),
      remaining_(n),
      n_(n) {}

bool LimitOp::Next(Batch* out) {
  if (remaining_ <= 0) return false;
  Batch in;
  if (!child_->NextTimed(&in)) return false;
  int64_t take = std::min(remaining_, in.num_rows);
  if (take == in.num_rows) {
    *out = std::move(in);
  } else {
    // Truncate by slicing the input columns (zero copy).
    out->Clear();
    out->columns.reserve(in.columns.size());
    for (const auto& c : in.columns) {
      out->columns.push_back(ColumnVector::Slice(c, 0, take));
    }
    out->num_rows = take;
  }
  remaining_ -= take;
  return true;
}

double LimitOp::Progress() const {
  if (n_ <= 0) return 1.0;
  return static_cast<double>(n_ - remaining_) / static_cast<double>(n_);
}

// ---------------------------------------------------------------------------
// UnionAllOp
// ---------------------------------------------------------------------------

UnionAllOp::UnionAllOp(Schema output_schema, std::vector<OperatorPtr> children)
    : Operator(std::move(output_schema)), children_(std::move(children)) {}

void UnionAllOp::Open() {
  for (auto& c : children_) c->Open();
  current_ = 0;
}

bool UnionAllOp::Next(Batch* out) {
  while (current_ < children_.size()) {
    if (children_[current_]->NextTimed(out)) return true;
    ++current_;
  }
  return false;
}

void UnionAllOp::Close() {
  for (auto& c : children_) c->Close();
}

double UnionAllOp::Progress() const {
  if (children_.empty()) return 1.0;
  double sum = 0;
  for (size_t i = 0; i < children_.size(); ++i) {
    sum += i < current_ ? 1.0 : children_[i]->Progress();
  }
  return sum / static_cast<double>(children_.size());
}

// ---------------------------------------------------------------------------
// Sort helpers
// ---------------------------------------------------------------------------

namespace {

// Compares rows a and b of `table` on `keys` (column indexes + direction).
struct RowComparator {
  const Table* table;
  const std::vector<int>* key_idx;
  const std::vector<SortKey>* keys;

  bool operator()(int64_t a, int64_t b) const {
    for (size_t k = 0; k < key_idx->size(); ++k) {
      const ColumnVector& col = *table->column((*key_idx)[k]);
      int c = DatumCompare(col.GetDatum(a), col.GetDatum(b));
      if (c != 0) return (*keys)[k].ascending ? c < 0 : c > 0;
    }
    return a < b;  // stable tie-break
  }
};

std::vector<int> ResolveKeys(const Schema& schema,
                             const std::vector<SortKey>& keys) {
  std::vector<int> idx;
  idx.reserve(keys.size());
  for (const auto& k : keys) idx.push_back(schema.IndexOfChecked(k.column));
  return idx;
}

// Emits rows `order[pos..pos+batch)` of `table` into `out`.
bool EmitOrdered(const Schema& schema, const Table& table,
                 const std::vector<int64_t>& order, int64_t* pos, Batch* out) {
  int64_t total = static_cast<int64_t>(order.size());
  if (*pos >= total) return false;
  int64_t count = std::min(kDefaultBatchRows, total - *pos);
  InitBatch(schema, out);
  std::vector<int32_t> sel(count);
  for (int64_t i = 0; i < count; ++i) {
    sel[i] = static_cast<int32_t>(order[*pos + i]);
  }
  for (int c = 0; c < table.num_columns(); ++c) {
    out->columns[c]->AppendSelected(*table.column(c), sel);
  }
  out->num_rows = count;
  *pos += count;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// SortOp
// ---------------------------------------------------------------------------

SortOp::SortOp(Schema output_schema, OperatorPtr child,
               std::vector<SortKey> keys)
    : Operator(std::move(output_schema)),
      child_(std::move(child)),
      keys_(std::move(keys)) {}

void SortOp::Open() {
  child_->Open();
  consumed_ = false;
  pos_ = 0;
}

void SortOp::Consume() {
  buffer_ = MakeTable(output_schema_);
  Batch in;
  while (child_->NextTimed(&in)) buffer_->AppendBatch(in);
  order_.resize(buffer_->num_rows());
  for (int64_t i = 0; i < buffer_->num_rows(); ++i) order_[i] = i;
  std::vector<int> key_idx = ResolveKeys(output_schema_, keys_);
  RowComparator cmp{buffer_.get(), &key_idx, &keys_};
  std::sort(order_.begin(), order_.end(), cmp);
  consumed_ = true;
}

bool SortOp::Next(Batch* out) {
  if (!consumed_) Consume();
  return EmitOrdered(output_schema_, *buffer_, order_, &pos_, out);
}

double SortOp::Progress() const {
  if (!consumed_) return 0.0;
  if (order_.empty()) return 1.0;
  return static_cast<double>(pos_) / static_cast<double>(order_.size());
}

// ---------------------------------------------------------------------------
// TopNOp
// ---------------------------------------------------------------------------

TopNOp::TopNOp(Schema output_schema, OperatorPtr child,
               std::vector<SortKey> keys, int64_t n)
    : Operator(std::move(output_schema)),
      child_(std::move(child)),
      keys_(std::move(keys)),
      n_(n) {
  RDB_CHECK(n_ > 0);
}

void TopNOp::Open() {
  child_->Open();
  consumed_ = false;
  pos_ = 0;
}

void TopNOp::Consume() {
  candidates_ = MakeTable(output_schema_);
  std::vector<int> key_idx = ResolveKeys(output_schema_, keys_);

  // Max-heap of row ids into candidates_: the root is the *worst* of the
  // currently-best N rows, so an incoming better row replaces it.
  std::vector<int64_t> heap;
  heap.reserve(n_ + 1);
  RowComparator less{candidates_.get(), &key_idx, &keys_};
  auto heap_cmp = [&](int64_t a, int64_t b) { return less(a, b); };

  Batch in;
  while (child_->NextTimed(&in)) {
    for (int64_t r = 0; r < in.num_rows; ++r) {
      // Append the row, then keep it only if it improves the heap.
      std::vector<Datum> row;
      row.reserve(in.columns.size());
      for (const auto& c : in.columns) row.push_back(c->GetDatum(r));
      candidates_->AppendRow(row);
      int64_t rid = candidates_->num_rows() - 1;
      if (static_cast<int64_t>(heap.size()) < n_) {
        heap.push_back(rid);
        std::push_heap(heap.begin(), heap.end(), heap_cmp);
      } else if (less(rid, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), heap_cmp);
        heap.back() = rid;
        std::push_heap(heap.begin(), heap.end(), heap_cmp);
      }
      // Compact the candidate pool when it has grown well past the heap.
      if (candidates_->num_rows() > 4 * n_ + 1024) {
        TablePtr live = MakeTable(output_schema_);
        std::vector<int64_t> remap(heap.size());
        for (size_t h = 0; h < heap.size(); ++h) {
          std::vector<Datum> lr;
          lr.reserve(candidates_->num_columns());
          for (int c = 0; c < candidates_->num_columns(); ++c) {
            lr.push_back(candidates_->Get(heap[h], c));
          }
          live->AppendRow(lr);
          remap[h] = static_cast<int64_t>(h);
        }
        candidates_ = live;
        heap = remap;
        less.table = candidates_.get();  // must precede make_heap
        std::make_heap(heap.begin(), heap.end(), heap_cmp);
      }
    }
  }

  order_ = heap;
  RowComparator final_cmp{candidates_.get(), &key_idx, &keys_};
  std::sort(order_.begin(), order_.end(), final_cmp);
  consumed_ = true;
}

bool TopNOp::Next(Batch* out) {
  if (!consumed_) Consume();
  return EmitOrdered(output_schema_, *candidates_, order_, &pos_, out);
}

double TopNOp::Progress() const {
  if (!consumed_) return 0.0;
  if (order_.empty()) return 1.0;
  return static_cast<double>(pos_) / static_cast<double>(order_.size());
}

// ---------------------------------------------------------------------------
// HashAggOp
// ---------------------------------------------------------------------------

HashAggOp::HashAggOp(Schema output_schema, OperatorPtr child,
                     std::vector<std::string> group_by,
                     std::vector<AggItem> aggs)
    : Operator(std::move(output_schema)),
      child_(std::move(child)),
      group_by_(std::move(group_by)),
      aggs_(std::move(aggs)) {
  const Schema& in = child_->output_schema();
  for (const auto& g : group_by_) group_idx_.push_back(in.IndexOfChecked(g));
  for (const auto& a : aggs_) {
    TypeId t;
    const Status st = a.arg->CheckType(in, &t);
    RDB_CHECK_MSG(st.ok(), st.message().c_str());
    agg_arg_types_.push_back(t);
  }
}

void HashAggOp::Open() {
  child_->Open();
  consumed_ = false;
  pos_ = 0;
  num_groups_ = 0;
  group_map_.clear();
  states_.assign(aggs_.size(), {});
}

int64_t HashAggOp::FindOrCreateGroup(const Batch& /*batch*/,
                                     const std::vector<ColumnPtr>& key_cols,
                                     int64_t row, uint64_t hash) {
  auto range = group_map_.equal_range(hash);
  for (auto it = range.first; it != range.second; ++it) {
    int64_t g = it->second;
    bool equal = true;
    for (size_t k = 0; k < key_cols.size(); ++k) {
      if (!group_keys_->column(static_cast<int>(k))
               ->RowEquals(g, *key_cols[k], row)) {
        equal = false;
        break;
      }
    }
    if (equal) return g;
  }
  // New group: append the key row. A double key is stored as its class's
  // representative, so -0.0 and 0.0 (or two NaN payloads) in one group
  // give one key whichever row comes first — in a base scan and in the
  // merge of a cached prefix with a delta (Reaggregate) alike.
  std::vector<Datum> key_row;
  key_row.reserve(key_cols.size());
  for (const auto& kc : key_cols) {
    Datum key = kc->GetDatum(row);
    if (const double* d = std::get_if<double>(&key)) {
      key = CanonicalDouble(*d);
    }
    key_row.push_back(std::move(key));
  }
  group_keys_->AppendRow(key_row);
  int64_t g = num_groups_++;
  group_map_.emplace(hash, g);
  for (auto& s : states_) s.emplace_back();
  return g;
}

void HashAggOp::Consume() {
  // Key table schema: the group-by prefix of the output schema.
  std::vector<Field> key_fields;
  for (size_t k = 0; k < group_by_.size(); ++k) {
    key_fields.push_back(output_schema_.field(static_cast<int>(k)));
  }
  group_keys_ = MakeTable(Schema(std::move(key_fields)));

  const Schema& in = child_->output_schema();
  const bool global = group_by_.empty();
  if (global) {
    // Single implicit group.
    num_groups_ = 1;
    for (auto& s : states_) s.emplace_back();
  }

  Batch batch;
  while (child_->NextTimed(&batch)) {
    // Evaluate group keys and aggregate arguments once per batch.
    std::vector<ColumnPtr> key_cols;
    key_cols.reserve(group_idx_.size());
    for (int gi : group_idx_) key_cols.push_back(batch.columns[gi]);
    std::vector<ColumnPtr> arg_cols;
    arg_cols.reserve(aggs_.size());
    for (const auto& a : aggs_) arg_cols.push_back(a.arg->Eval(batch, in));

    for (int64_t r = 0; r < batch.num_rows; ++r) {
      int64_t g = 0;
      if (!global) {
        uint64_t h = kKeyHashSeed;
        for (const auto& kc : key_cols) h = kc->HashRow(r, h);
        g = FindOrCreateGroup(batch, key_cols, r, h);
      }
      for (size_t a = 0; a < aggs_.size(); ++a) {
        AggState& st = states_[a][g];
        const ColumnVector& arg = *arg_cols[a];
        switch (aggs_[a].fn) {
          case AggFunc::kSum:
          case AggFunc::kAvg:
            if (agg_arg_types_[a] == TypeId::kDouble) {
              st.dsum += arg.Raw<double>()[r];
            } else {
              int64_t v = agg_arg_types_[a] == TypeId::kInt64
                              ? arg.Raw<int64_t>()[r]
                              : arg.Raw<int32_t>()[r];
              st.isum += v;
              st.dsum += static_cast<double>(v);
            }
            ++st.count;
            break;
          case AggFunc::kCount:
            ++st.count;
            break;
          case AggFunc::kMin:
          case AggFunc::kMax: {
            Datum v = arg.GetDatum(r);
            if (st.count == 0) {
              st.min_v = v;
              st.max_v = v;
            } else {
              if (DatumCompareSigned(v, st.min_v) < 0) st.min_v = v;
              if (DatumCompareSigned(v, st.max_v) > 0) st.max_v = v;
            }
            ++st.count;
            break;
          }
        }
      }
    }
  }
  consumed_ = true;
}

bool HashAggOp::Next(Batch* out) {
  if (!consumed_) Consume();
  if (pos_ >= num_groups_) return false;
  int64_t count = std::min(kDefaultBatchRows, num_groups_ - pos_);
  InitBatch(output_schema_, out);
  const int ng = static_cast<int>(group_by_.size());
  // Group key columns.
  for (int k = 0; k < ng; ++k) {
    out->columns[k]->AppendRange(*group_keys_->column(k), pos_, count);
  }
  // Aggregate columns.
  for (size_t a = 0; a < aggs_.size(); ++a) {
    ColumnVector& col = *out->columns[ng + static_cast<int>(a)];
    for (int64_t g = pos_; g < pos_ + count; ++g) {
      const AggState& st = states_[a][g];
      switch (aggs_[a].fn) {
        case AggFunc::kSum:
          if (col.type() == TypeId::kDouble) {
            col.Append(st.dsum);
          } else {
            col.Append(st.isum);
          }
          break;
        case AggFunc::kCount:
          col.Append(st.count);
          break;
        case AggFunc::kAvg:
          col.Append(st.count == 0 ? 0.0 : st.dsum / st.count);
          break;
        case AggFunc::kMin:
          col.Append(st.count == 0 ? PadValue(col.type()) : st.min_v);
          break;
        case AggFunc::kMax:
          col.Append(st.count == 0 ? PadValue(col.type()) : st.max_v);
          break;
      }
    }
  }
  out->num_rows = count;
  pos_ += count;
  return true;
}

double HashAggOp::Progress() const {
  if (!consumed_) return 0.0;
  if (num_groups_ == 0) return 1.0;
  return static_cast<double>(pos_) / static_cast<double>(num_groups_);
}

// ---------------------------------------------------------------------------
// HashJoinOp
// ---------------------------------------------------------------------------

HashJoinOp::HashJoinOp(Schema output_schema, OperatorPtr left,
                       OperatorPtr right, JoinKind kind,
                       std::vector<std::string> left_keys,
                       std::vector<std::string> right_keys)
    : Operator(std::move(output_schema)),
      left_(std::move(left)),
      right_(std::move(right)),
      kind_(kind) {
  for (const auto& k : left_keys) {
    left_key_idx_.push_back(left_->output_schema().IndexOfChecked(k));
  }
  for (const auto& k : right_keys) {
    right_key_idx_.push_back(right_->output_schema().IndexOfChecked(k));
  }
}

void HashJoinOp::Open() {
  left_->Open();
  right_->Open();
  built_ = false;
}

void HashJoinOp::Build() {
  build_table_ = MakeTable(right_->output_schema());
  Batch in;
  while (right_->NextTimed(&in)) build_table_->AppendBatch(in);
  const int64_t n = build_table_->num_rows();
  RDB_CHECK_MSG(n <= INT32_MAX, "hash join build side exceeds 2^31 rows");
  build_keys_.clear();
  build_hashes_.assign(n, kKeyHashSeed);
  for (int ki : right_key_idx_) {
    build_keys_.push_back(build_table_->column(ki).get());
    build_keys_.back()->HashRows(build_hashes_.data());
  }
  uint64_t buckets = 1;
  while (buckets < static_cast<uint64_t>(n)) buckets <<= 1;
  bucket_mask_ = buckets - 1;
  first_.assign(buckets, -1);
  next_.resize(n);
  for (int32_t r = 0; r < n; ++r) {
    int32_t& head = first_[BucketOf(build_hashes_[r])];
    next_[r] = head;
    head = r;
  }
  built_ = true;
}

bool HashJoinOp::Next(Batch* out) {
  if (!built_) Build();
  Batch in;
  const int ncols_left = left_->output_schema().num_fields();
  const bool emit_right = kind_ == JoinKind::kInner ||
                          kind_ == JoinKind::kLeftOuter ||
                          kind_ == JoinKind::kSingle;
  std::vector<const ColumnVector*> probe_keys(left_key_idx_.size());
  while (left_->NextTimed(&in)) {
    probe_hashes_.assign(in.num_rows, kKeyHashSeed);
    for (size_t k = 0; k < left_key_idx_.size(); ++k) {
      probe_keys[k] = in.columns[left_key_idx_[k]].get();
      RDB_CHECK(probe_keys[k]->size() == in.num_rows);
      probe_keys[k]->HashRows(probe_hashes_.data());
    }
    // Gather (probe_row, build_row) pairs; build_row = -1 pads.
    probe_sel_.clear();
    build_sel_.clear();
    bool padded = false;
    for (int64_t r = 0; r < in.num_rows; ++r) {
      const uint64_t h = probe_hashes_[r];
      int match_count = 0;
      for (int32_t br = first_[BucketOf(h)]; br >= 0; br = next_[br]) {
        if (build_hashes_[br] != h) continue;
        bool equal = true;
        for (size_t k = 0; k < probe_keys.size(); ++k) {
          if (!probe_keys[k]->RowEquals(r, *build_keys_[k], br)) {
            equal = false;
            break;
          }
        }
        if (!equal) continue;
        ++match_count;
        // Semi and anti joins only ask whether a match exists.
        if (kind_ == JoinKind::kSemi || kind_ == JoinKind::kAnti) break;
        probe_sel_.push_back(static_cast<int32_t>(r));
        build_sel_.push_back(br);
        RDB_CHECK_MSG(kind_ != JoinKind::kSingle || match_count <= 1,
                      "kSingle join found multiple matches");
      }
      switch (kind_) {
        case JoinKind::kSemi:
          if (match_count > 0) probe_sel_.push_back(static_cast<int32_t>(r));
          break;
        case JoinKind::kAnti:
          if (match_count == 0) probe_sel_.push_back(static_cast<int32_t>(r));
          break;
        case JoinKind::kLeftOuter:
          if (match_count == 0) {
            probe_sel_.push_back(static_cast<int32_t>(r));
            build_sel_.push_back(-1);
            padded = true;
          }
          break;
        default:
          break;
      }
    }
    if (probe_sel_.empty()) continue;

    InitBatch(output_schema_, out);
    for (int c = 0; c < ncols_left; ++c) {
      out->columns[c]->AppendSelected(*in.columns[c], probe_sel_);
    }
    if (emit_right) {
      const Schema& rs = right_->output_schema();
      for (int c = 0; c < rs.num_fields(); ++c) {
        ColumnVector& dst = *out->columns[ncols_left + c];
        const ColumnVector& src = *build_table_->column(c);
        if (!padded) {
          dst.AppendSelected(src, build_sel_);
          continue;
        }
        const Datum pad = PadValue(rs.field(c).type);
        for (int32_t br : build_sel_) {
          if (br < 0) {
            dst.Append(pad);
          } else {
            dst.AppendRange(src, br, 1);
          }
        }
      }
    }
    out->num_rows = static_cast<int64_t>(probe_sel_.size());
    return true;
  }
  return false;
}

void HashJoinOp::Close() {
  left_->Close();
  right_->Close();
}

}  // namespace recycledb
