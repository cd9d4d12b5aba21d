#include "plan/plan.h"

#include "common/hash.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "expr/range.h"
#include "plan/table_function.h"
#include "storage/wire_format.h"

namespace recycledb {

const char* OpTypeName(OpType type) {
  switch (type) {
    case OpType::kScan: return "Scan";
    case OpType::kFunctionScan: return "FunctionScan";
    case OpType::kSelect: return "Select";
    case OpType::kProject: return "Project";
    case OpType::kAggregate: return "Aggregate";
    case OpType::kHashJoin: return "HashJoin";
    case OpType::kOrderBy: return "OrderBy";
    case OpType::kTopN: return "TopN";
    case OpType::kLimit: return "Limit";
    case OpType::kUnionAll: return "UnionAll";
    case OpType::kCachedScan: return "CachedScan";
  }
  return "?";
}

const char* JoinKindName(JoinKind kind) {
  switch (kind) {
    case JoinKind::kInner: return "inner";
    case JoinKind::kLeftOuter: return "leftouter";
    case JoinKind::kSemi: return "semi";
    case JoinKind::kAnti: return "anti";
    case JoinKind::kSingle: return "single";
  }
  return "?";
}

uint64_t TemplateHash(const std::string& fingerprint) {
  const uint64_t hash = HashString(fingerprint);
  return hash == 0 ? 1 : hash;
}

PlanPtr PlanNode::Scan(std::string table, std::vector<std::string> columns) {
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kScan;
  p->table_ = std::move(table);
  p->columns_ = std::move(columns);
  return p;
}

PlanPtr PlanNode::ScanRange(std::string table,
                            std::vector<std::string> columns, int64_t begin,
                            int64_t end) {
  RDB_CHECK_MSG(begin >= 0 && (end < 0 || end >= begin),
                "invalid scan row range");
  PlanPtr p = Scan(std::move(table), std::move(columns));
  p->scan_begin_ = begin;
  p->scan_end_ = end;
  return p;
}

PlanPtr PlanNode::FunctionScan(std::string function, std::vector<Datum> args) {
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kFunctionScan;
  p->table_ = std::move(function);
  p->args_ = std::move(args);
  return p;
}

PlanPtr PlanNode::FunctionScanTemplate(std::string function,
                                       std::vector<ExprPtr> args) {
  bool all_literal = true;
  for (const auto& a : args) {
    RDB_CHECK_MSG(a != nullptr && (a->kind() == ExprKind::kLiteral ||
                                   a->kind() == ExprKind::kParam),
                  "FunctionScanTemplate args must be literals or params");
    all_literal = all_literal && a->kind() == ExprKind::kLiteral;
  }
  if (all_literal) {
    std::vector<Datum> datums;
    datums.reserve(args.size());
    for (const auto& a : args) datums.push_back(a->literal());
    return FunctionScan(std::move(function), std::move(datums));
  }
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kFunctionScan;
  p->table_ = std::move(function);
  p->arg_exprs_ = std::move(args);
  return p;
}

PlanPtr PlanNode::Select(PlanPtr child, ExprPtr predicate) {
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kSelect;
  p->children_ = {std::move(child)};
  p->predicate_ = std::move(predicate);
  return p;
}

PlanPtr PlanNode::Project(PlanPtr child, std::vector<ProjItem> items) {
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kProject;
  p->children_ = {std::move(child)};
  p->projections_ = std::move(items);
  return p;
}

PlanPtr PlanNode::Aggregate(PlanPtr child, std::vector<std::string> group_by,
                            std::vector<AggItem> aggregates) {
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kAggregate;
  p->children_ = {std::move(child)};
  p->group_by_ = std::move(group_by);
  p->aggregates_ = std::move(aggregates);
  return p;
}

PlanPtr PlanNode::HashJoin(PlanPtr left, PlanPtr right, JoinKind kind,
                           std::vector<std::string> left_keys,
                           std::vector<std::string> right_keys) {
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kHashJoin;
  p->children_ = {std::move(left), std::move(right)};
  p->join_kind_ = kind;
  p->left_keys_ = std::move(left_keys);
  p->right_keys_ = std::move(right_keys);
  return p;
}

PlanPtr PlanNode::OrderBy(PlanPtr child, std::vector<SortKey> keys) {
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kOrderBy;
  p->children_ = {std::move(child)};
  p->sort_keys_ = std::move(keys);
  return p;
}

PlanPtr PlanNode::TopN(PlanPtr child, std::vector<SortKey> keys, int64_t n) {
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kTopN;
  p->children_ = {std::move(child)};
  p->sort_keys_ = std::move(keys);
  p->limit_ = n;
  return p;
}

PlanPtr PlanNode::Limit(PlanPtr child, int64_t n) {
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kLimit;
  p->children_ = {std::move(child)};
  p->limit_ = n;
  return p;
}

PlanPtr PlanNode::UnionAll(std::vector<PlanPtr> children) {
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kUnionAll;
  p->children_ = std::move(children);
  return p;
}

PlanPtr PlanNode::CachedScan(TablePtr result,
                             std::vector<std::string> column_names) {
  PlanPtr p(new PlanNode());
  p->type_ = OpType::kCachedScan;
  p->cached_ = std::move(result);
  p->columns_ = std::move(column_names);
  return p;
}

const Schema& PlanNode::output_schema() const {
  RDB_CHECK_MSG(bound_, "plan node not bound");
  return output_schema_;
}

bool PlanNode::HasStaleBinding(const Catalog& catalog) const {
  const uint64_t generation = catalog.schema_generation();
  if (generation == 0) return false;  // no ReplaceTable yet
  if (bound_ && bound_generation_ != generation) return true;
  for (const auto& c : children_) {
    if (c->HasStaleBinding(catalog)) return true;
  }
  return false;
}

Status PlanNode::DeriveSchema(const Catalog& catalog,
                              const std::vector<const Schema*>& inputs,
                              Schema* out) const {
  auto error = [](const std::string& what) {
    return Status::InvalidArgument(what);
  };
  switch (type_) {
    case OpType::kScan: {
      TablePtr t = catalog.GetTable(table_);
      if (t == nullptr) return error("unknown table: " + table_);
      if (columns_.empty()) return error("scan selects no columns");
      std::vector<Field> fields;
      fields.reserve(columns_.size());
      for (const auto& col : columns_) {
        int idx = t->schema().IndexOf(col);
        if (idx < 0) return error("unknown column: " + table_ + "." + col);
        fields.push_back(t->schema().field(idx));
      }
      *out = Schema(std::move(fields));
      return Status::OK();
    }
    case OpType::kFunctionScan: {
      if (!arg_exprs_.empty()) {
        std::set<std::string> params;
        CollectParams(&params);
        std::string names;
        for (const auto& p : params) {
          if (!names.empty()) names += ", ";
          names += "$" + p;
        }
        return error("unbound function-scan parameters: " + names);
      }
      const TableFunction* fn = TableFunctionRegistry::Global().Get(table_);
      if (fn == nullptr) return error("unknown table function: " + table_);
      for (const auto& a : args_) {
        if (std::holds_alternative<std::monostate>(a)) {
          return error("null argument to " + table_);
        }
      }
      if (!fn->arg_types.empty()) {
        if (args_.size() != fn->arg_types.size()) {
          return error(StrFormat("%s takes %zu arguments, got %zu",
                                 table_.c_str(), fn->arg_types.size(),
                                 args_.size()));
        }
        for (size_t i = 0; i < fn->arg_types.size(); ++i) {
          TypeId expected = fn->arg_types[i];
          TypeId actual = DatumType(args_[i]);
          if (expected != actual &&
              !(IsNumeric(expected) && IsNumeric(actual))) {
            return error(StrFormat("%s argument %zu: expected %s, got %s",
                                   table_.c_str(), i + 1, TypeName(expected),
                                   TypeName(actual)));
          }
        }
      }
      *out = fn->schema_fn(args_);
      return Status::OK();
    }
    case OpType::kSelect: {
      TypeId t;
      RDB_RETURN_NOT_OK(predicate_->CheckType(*inputs[0], &t));
      if (t != TypeId::kBool) return error("filter predicate is not boolean");
      *out = *inputs[0];
      return Status::OK();
    }
    case OpType::kProject: {
      if (projections_.empty()) return error("projection computes no columns");
      std::vector<Field> fields(projections_.size());
      for (size_t i = 0; i < projections_.size(); ++i) {
        fields[i].name = projections_[i].out_name;
        RDB_RETURN_NOT_OK(
            projections_[i].expr->CheckType(*inputs[0], &fields[i].type));
      }
      *out = Schema(std::move(fields));
      return Status::OK();
    }
    case OpType::kAggregate: {
      const Schema& in = *inputs[0];
      std::vector<Field> fields;
      fields.reserve(group_by_.size() + aggregates_.size());
      for (const auto& g : group_by_) {
        int idx = in.IndexOf(g);
        if (idx < 0) return error("unknown group-by column: " + g);
        fields.push_back(in.field(idx));
      }
      for (const auto& a : aggregates_) {
        TypeId t;
        RDB_RETURN_NOT_OK(a.arg->CheckType(in, &t));
        if ((a.fn == AggFunc::kSum || a.fn == AggFunc::kAvg) &&
            !IsNumeric(t)) {
          return error(StrFormat("%s over non-numeric argument",
                                 AggFuncName(a.fn)));
        }
        fields.push_back({a.out_name, AggResultType(a.fn, t)});
      }
      *out = Schema(std::move(fields));
      return Status::OK();
    }
    case OpType::kHashJoin: {
      const Schema& l = *inputs[0];
      const Schema& r = *inputs[1];
      if (left_keys_.empty() || left_keys_.size() != right_keys_.size()) {
        return error("join key lists must be non-empty and equal length");
      }
      for (size_t i = 0; i < left_keys_.size(); ++i) {
        int li = l.IndexOf(left_keys_[i]);
        if (li < 0) return error("unknown left join key: " + left_keys_[i]);
        int ri = r.IndexOf(right_keys_[i]);
        if (ri < 0) return error("unknown right join key: " + right_keys_[i]);
        // The join's row comparator requires identical key types.
        if (l.field(li).type != r.field(ri).type) {
          return error(StrFormat(
              "join key type mismatch: %s is %s but %s is %s",
              left_keys_[i].c_str(), TypeName(l.field(li).type),
              right_keys_[i].c_str(), TypeName(r.field(ri).type)));
        }
      }
      std::vector<Field> fields = l.fields();
      if (join_kind_ == JoinKind::kInner ||
          join_kind_ == JoinKind::kLeftOuter ||
          join_kind_ == JoinKind::kSingle) {
        for (const auto& f : r.fields()) {
          if (l.Has(f.name)) {
            return error("duplicate join output column: " + f.name);
          }
          fields.push_back(f);
        }
      }
      *out = Schema(std::move(fields));
      return Status::OK();
    }
    case OpType::kOrderBy:
    case OpType::kTopN:
      for (const auto& k : sort_keys_) {
        if (inputs[0]->IndexOf(k.column) < 0) {
          return error("unknown sort column: " + k.column);
        }
      }
      if (type_ == OpType::kTopN && limit_ <= 0) {
        return error("top-N limit must be positive");
      }
      *out = *inputs[0];
      return Status::OK();
    case OpType::kLimit:
      if (limit_ < 0) return error("limit must be non-negative");
      *out = *inputs[0];
      return Status::OK();
    case OpType::kUnionAll: {
      if (inputs.empty()) return error("union has no children");
      const Schema& first = *inputs[0];
      for (const Schema* s : inputs) {
        if (s->num_fields() != first.num_fields()) {
          return error("union children arity mismatch");
        }
        for (int i = 0; i < s->num_fields(); ++i) {
          if (s->field(i).type != first.field(i).type) {
            return error("union children type mismatch");
          }
        }
      }
      *out = first;
      return Status::OK();
    }
    case OpType::kCachedScan: {
      if (cached_ == nullptr) return error("cached scan without a result");
      const Schema& cached = cached_->schema();
      if (static_cast<int>(columns_.size()) != cached.num_fields()) {
        return error("cached scan column-rename arity mismatch");
      }
      std::vector<Field> fields;
      fields.reserve(columns_.size());
      for (int i = 0; i < cached.num_fields(); ++i) {
        fields.push_back({columns_[i], cached.field(i).type});
      }
      *out = Schema(std::move(fields));
      return Status::OK();
    }
  }
  return Status::Internal("bad plan operator");
}

void PlanNode::Bind(const Catalog& catalog) {
  if (bound_) return;
  // Read before the children bind, so a parent never records a newer
  // generation than a child it was bound under.
  const uint64_t generation = catalog.schema_generation();
  std::vector<const Schema*> inputs;
  inputs.reserve(children_.size());
  base_tables_.clear();
  for (auto& c : children_) {
    c->Bind(catalog);
    inputs.push_back(&c->output_schema_);
    base_tables_.insert(c->base_tables_.begin(), c->base_tables_.end());
  }
  const Status st = DeriveSchema(catalog, inputs, &output_schema_);
  RDB_CHECK_MSG(st.ok(), st.message().c_str());
  if (type_ == OpType::kScan) base_tables_.insert(table_);
  if (type_ == OpType::kFunctionScan) {
    const TableFunction* fn = TableFunctionRegistry::Global().Get(table_);
    base_tables_.insert(fn->base_tables.begin(), fn->base_tables.end());
  }
  bound_ = true;
  bound_generation_ = generation;
}

void PlanNode::AppendParamKey(std::string* out, bool positional) const {
  // The schemas the parameters read: child 0's output, and for a join's
  // right keys child 1's.
  const Schema* in = nullptr;
  const Schema* right = nullptr;
  if (positional && !children_.empty()) {
    in = &children_[0]->output_schema();
    if (children_.size() > 1) right = &children_[1]->output_schema();
  }
  auto put_count = [out](size_t n) {
    wire::PutU32(out, static_cast<uint32_t>(n));
  };
  switch (type_) {
    case OpType::kScan:
      wire::PutString(out, table_);
      put_count(columns_.size());
      for (const auto& c : columns_) wire::PutString(out, c);
      wire::PutU64(out, static_cast<uint64_t>(scan_begin_));
      wire::PutU64(out, static_cast<uint64_t>(scan_end_));
      return;
    case OpType::kFunctionScan:
      // A literal argument keys as the literal expression it came from,
      // so a template whose arguments are all bound keys like the plain
      // FunctionScan it becomes.
      wire::PutString(out, table_);
      if (!arg_exprs_.empty()) {
        put_count(arg_exprs_.size());
        for (const auto& a : arg_exprs_) a->AppendKey(out, in);
      } else {
        put_count(args_.size());
        for (const auto& a : args_) {
          out->push_back(static_cast<char>(ExprKind::kLiteral));
          AppendTypedDatum(a, out);
        }
      }
      return;
    case OpType::kSelect:
      predicate_->AppendKey(out, in);
      return;
    case OpType::kProject:
      put_count(projections_.size());
      for (const auto& p : projections_) p.expr->AppendKey(out, in);
      return;
    case OpType::kAggregate:
      put_count(group_by_.size());
      for (const auto& g : group_by_) AppendColumnKey(g, in, out);
      put_count(aggregates_.size());
      for (const auto& a : aggregates_) a.AppendKey(out, in);
      return;
    case OpType::kHashJoin:
      out->push_back(static_cast<char>(join_kind_));
      put_count(left_keys_.size());
      for (const auto& k : left_keys_) AppendColumnKey(k, in, out);
      put_count(right_keys_.size());
      for (const auto& k : right_keys_) AppendColumnKey(k, right, out);
      return;
    case OpType::kOrderBy:
    case OpType::kTopN:
      wire::PutU64(out, static_cast<uint64_t>(limit_));
      put_count(sort_keys_.size());
      for (const auto& k : sort_keys_) {
        AppendColumnKey(k.column, in, out);
        out->push_back(k.ascending ? 1 : 0);
      }
      return;
    case OpType::kLimit:
      wire::PutU64(out, static_cast<uint64_t>(limit_));
      return;
    case OpType::kUnionAll:
    case OpType::kCachedScan:
      return;
  }
  RDB_UNREACHABLE("bad op type");
}

bool PlanNode::HasParams() const {
  if (!arg_exprs_.empty()) return true;
  if (predicate_ != nullptr && predicate_->HasParams()) return true;
  for (const auto& item : projections_) {
    if (item.expr->HasParams()) return true;
  }
  for (const auto& a : aggregates_) {
    if (a.arg->HasParams()) return true;
  }
  for (const auto& c : children_) {
    if (c->HasParams()) return true;
  }
  return false;
}

void PlanNode::CollectParams(std::set<std::string>* out) const {
  for (const auto& e : arg_exprs_) e->CollectParams(out);
  if (predicate_ != nullptr) predicate_->CollectParams(out);
  for (const auto& item : projections_) item.expr->CollectParams(out);
  for (const auto& a : aggregates_) a.arg->CollectParams(out);
  for (const auto& c : children_) c->CollectParams(out);
}

PlanPtr PlanNode::SubstituteParams(const ParamMap& params,
                                   std::vector<std::string>* missing) {
  if (!HasParams()) return shared_from_this();
  PlanPtr p = CloneShallow();
  if (p->predicate_ != nullptr) {
    p->predicate_ = p->predicate_->SubstituteParams(params, missing);
  }
  for (auto& item : p->projections_) {
    item.expr = item.expr->SubstituteParams(params, missing);
  }
  for (auto& a : p->aggregates_) {
    a.arg = a.arg->SubstituteParams(params, missing);
  }
  if (!p->arg_exprs_.empty()) {
    std::vector<Datum> datums;
    bool all_literal = true;
    for (auto& e : p->arg_exprs_) {
      e = e->SubstituteParams(params, missing);
      if (e->kind() == ExprKind::kLiteral) {
        datums.push_back(e->literal());
      } else {
        all_literal = false;
      }
    }
    if (all_literal) {
      p->args_ = std::move(datums);
      p->arg_exprs_.clear();
    }
  }
  for (auto& c : p->children_) c = c->SubstituteParams(params, missing);
  return p;
}

std::string PlanNode::TreeKey() const {
  std::string out;
  AppendTreeKey(&out);
  return out;
}

void PlanNode::AppendTreeKey(std::string* out) const {
  out->push_back(static_cast<char>(type_));
  // The param key's length, patched in once the key is written.
  const size_t at = out->size();
  wire::PutU32(out, 0);
  AppendParamKey(out, /*positional=*/false);
  const uint32_t length = static_cast<uint32_t>(out->size() - at - 4);
  for (int i = 0; i < 4; ++i) {
    (*out)[at + i] = static_cast<char>(length >> (8 * i));
  }
  wire::PutU32(out, static_cast<uint32_t>(children_.size()));
  for (const auto& c : children_) c->AppendTreeKey(out);
}

PlanPtr PlanNode::CloneShallow() const {
  PlanPtr p(new PlanNode(*this));
  p->bound_ = false;
  return p;
}

PlanPtr PlanNode::CloneDeep() const {
  PlanPtr p = CloneShallow();
  for (auto& c : p->children_) c = c->CloneDeep();
  return p;
}

PlanPtr PlanNode::WithChildren(std::vector<PlanPtr> new_children) const {
  PlanPtr p = CloneShallow();
  p->children_ = std::move(new_children);
  return p;
}

PlanPtr PlanNode::WithPredicate(ExprPtr predicate) const {
  RDB_CHECK_MSG(type_ == OpType::kSelect, "WithPredicate on non-select");
  PlanPtr p = CloneShallow();
  p->predicate_ = std::move(predicate);
  return p;
}

PlanPtr PlanNode::WithProjections(std::vector<ProjItem> items) const {
  RDB_CHECK_MSG(type_ == OpType::kProject, "WithProjections on non-project");
  PlanPtr p = CloneShallow();
  p->projections_ = std::move(items);
  return p;
}

PlanPtr PlanNode::WithLimit(int64_t n) const {
  RDB_CHECK_MSG(type_ == OpType::kLimit || type_ == OpType::kTopN,
                "WithLimit on non-limit");
  PlanPtr p = CloneShallow();
  p->limit_ = n;
  return p;
}

PlanPtr PlanNode::PositionalParams() const {
  PlanPtr p = CloneShallow();
  p->children_.clear();
  if (children_.empty()) return p;  // leaves read no child
  const Schema& in = children_[0]->output_schema();
  auto to_ordinal = [](const Schema& s, std::string* name) {
    *name = OrdinalName(s.IndexOfChecked(*name));
  };
  if (p->predicate_ != nullptr) p->predicate_ = p->predicate_->Positional(in);
  for (auto& item : p->projections_) item.expr = item.expr->Positional(in);
  for (auto& g : p->group_by_) to_ordinal(in, &g);
  for (auto& a : p->aggregates_) a.arg = a.arg->Positional(in);
  for (auto& k : p->left_keys_) to_ordinal(in, &k);
  for (auto& k : p->right_keys_) to_ordinal(children_[1]->output_schema(), &k);
  for (auto& k : p->sort_keys_) to_ordinal(in, &k.column);
  return p;
}

namespace {
std::string ExprDisplay(const ExprPtr& e) { return e->DisplayString(); }
}  // namespace

std::string PlanNode::Explain(int indent) const {
  std::string line;
  switch (type_) {
    case OpType::kScan:
      line = StrFormat("Scan %s [%s]", table_.c_str(),
                       Join(columns_, ", ").c_str());
      if (has_scan_range()) {
        // The delta window of a delta-maintenance rewrite: base rows
        // appended after the stitched cached result's as-of mark.
        line += scan_end_ < 0
                    ? StrFormat(" rows=[%lld, end)", (long long)scan_begin_)
                    : StrFormat(" rows=[%lld, %lld)", (long long)scan_begin_,
                                (long long)scan_end_);
      }
      break;
    case OpType::kFunctionScan: {
      line = "FunctionScan " + table_ + "(";
      if (!arg_exprs_.empty()) {
        for (size_t i = 0; i < arg_exprs_.size(); ++i) {
          if (i > 0) line += ", ";
          line += ExprDisplay(arg_exprs_[i]);
        }
      } else {
        for (size_t i = 0; i < args_.size(); ++i) {
          if (i > 0) line += ", ";
          line += DatumToString(args_[i]);
        }
      }
      line += ")";
      break;
    }
    case OpType::kSelect: {
      line = "Filter " + ExprDisplay(predicate_);
      // A Filter directly over a (cached) scan pushes its range conjuncts
      // down as zone-map prune hints at build time; surface the prunable
      // intervals here. Runtime pruned/scanned block counts land in
      // QueryTrace (Explain renders before execution).
      if (!children_.empty() &&
          (children_[0]->type() == OpType::kScan ||
           children_[0]->type() == OpType::kCachedScan)) {
        std::string pruned;
        for (const RangeSpec& spec : ExtractRangeSpecs(predicate_, nullptr)) {
          if (!pruned.empty()) pruned += ", ";
          pruned += spec.column + " in " + IntervalToString(spec.range);
        }
        if (!pruned.empty()) line += " prune[" + pruned + "]";
      }
      break;
    }
    case OpType::kProject: {
      line = "Project ";
      for (size_t i = 0; i < projections_.size(); ++i) {
        if (i > 0) line += ", ";
        line += projections_[i].out_name + " := " +
                ExprDisplay(projections_[i].expr);
      }
      break;
    }
    case OpType::kAggregate: {
      line = StrFormat("Aggregate group=[%s] ", Join(group_by_, ", ").c_str());
      for (size_t i = 0; i < aggregates_.size(); ++i) {
        if (i > 0) line += ", ";
        line += StrFormat("%s(%s) AS %s", AggFuncName(aggregates_[i].fn),
                          ExprDisplay(aggregates_[i].arg).c_str(),
                          aggregates_[i].out_name.c_str());
      }
      break;
    }
    case OpType::kHashJoin:
      line = StrFormat("HashJoin %s [%s] = [%s]", JoinKindName(join_kind_),
                       Join(left_keys_, ", ").c_str(),
                       Join(right_keys_, ", ").c_str());
      break;
    case OpType::kOrderBy:
    case OpType::kTopN: {
      line = type_ == OpType::kTopN
                 ? StrFormat("TopN n=%lld by ", (long long)limit_)
                 : "OrderBy ";
      for (size_t i = 0; i < sort_keys_.size(); ++i) {
        if (i > 0) line += ", ";
        line += sort_keys_[i].column + (sort_keys_[i].ascending ? " asc"
                                                                : " desc");
      }
      break;
    }
    case OpType::kLimit:
      line = StrFormat("Limit %lld", (long long)limit_);
      break;
    case OpType::kUnionAll:
      line = "UnionAll";
      break;
    case OpType::kCachedScan:
      line = StrFormat("CachedScan rows=%lld [%s]",
                       cached_ != nullptr ? (long long)cached_->num_rows() : 0,
                       Join(columns_, ", ").c_str());
      if (as_of_rows_ >= 0) {
        line += StrFormat(" as-of=%lld", (long long)as_of_rows_);
      }
      if (cache_key_ != 0) {
        line += StrFormat(" key=%016llx", (unsigned long long)cache_key_);
      }
      break;
  }
  std::string out = std::string(indent * 2, ' ') + line + "\n";
  for (const auto& c : children_) out += c->Explain(indent + 1);
  return out;
}

}  // namespace recycledb
