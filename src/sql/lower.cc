#include "sql/lower.h"

#include <algorithm>
#include <cctype>
#include <set>

#include "common/string_util.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace recycledb {
namespace sql {

namespace {

std::string ToLower(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

/// Lowering context: the source text (caret snippets) and, for base-table
/// scans, the table schema for name resolution. Function scans have no
/// statically known schema here; their column references are checked by
/// the schema rule (PlanNode::DeriveSchema) in ValidatePlan instead.
struct LowerCtx {
  std::string_view sql;
  const Schema* schema = nullptr;  // null for function scans

  Status NameError(const Pos& pos, const std::string& what) const {
    return Status::InvalidArgument(
        CaretSnippet(sql, pos.line, pos.column, what));
  }
};

Status BuildExpr(const LowerCtx& ctx, const AstExpr& ast, ExprPtr* out);

Status BuildChildren(const LowerCtx& ctx, const AstExpr& ast,
                     std::vector<ExprPtr>* out) {
  for (const AstExprPtr& c : ast.children) {
    ExprPtr e;
    RDB_RETURN_NOT_OK(BuildExpr(ctx, *c, &e));
    out->push_back(std::move(e));
  }
  return Status::OK();
}

Status BuildExpr(const LowerCtx& ctx, const AstExpr& ast, ExprPtr* out) {
  switch (ast.kind) {
    case AstExprKind::kColumn:
      if (ctx.schema != nullptr && !ctx.schema->Has(ast.name)) {
        return ctx.NameError(ast.pos, "unknown column '" + ast.name + "'");
      }
      *out = Expr::Column(ast.name);
      return Status::OK();
    case AstExprKind::kLiteral:
      *out = Expr::Literal(ast.literal);
      return Status::OK();
    case AstExprKind::kParam:
      *out = Expr::Param(ast.name);
      return Status::OK();
    case AstExprKind::kCompare: {
      std::vector<ExprPtr> kids;
      RDB_RETURN_NOT_OK(BuildChildren(ctx, ast, &kids));
      CompareOp op;
      if (ast.name == "=") {
        op = CompareOp::kEq;
      } else if (ast.name == "!=") {
        op = CompareOp::kNe;
      } else if (ast.name == "<") {
        op = CompareOp::kLt;
      } else if (ast.name == "<=") {
        op = CompareOp::kLe;
      } else if (ast.name == ">") {
        op = CompareOp::kGt;
      } else {
        op = CompareOp::kGe;
      }
      *out = Expr::Compare(op, std::move(kids[0]), std::move(kids[1]));
      return Status::OK();
    }
    case AstExprKind::kAnd: {
      std::vector<ExprPtr> kids;
      RDB_RETURN_NOT_OK(BuildChildren(ctx, ast, &kids));
      *out = Expr::And(std::move(kids[0]), std::move(kids[1]));
      return Status::OK();
    }
    case AstExprKind::kOr: {
      std::vector<ExprPtr> kids;
      RDB_RETURN_NOT_OK(BuildChildren(ctx, ast, &kids));
      *out = Expr::Or(std::move(kids[0]), std::move(kids[1]));
      return Status::OK();
    }
    case AstExprKind::kNot: {
      std::vector<ExprPtr> kids;
      RDB_RETURN_NOT_OK(BuildChildren(ctx, ast, &kids));
      *out = Expr::Not(std::move(kids[0]));
      return Status::OK();
    }
    case AstExprKind::kArith: {
      std::vector<ExprPtr> kids;
      RDB_RETURN_NOT_OK(BuildChildren(ctx, ast, &kids));
      ArithOp op;
      if (ast.name == "+") {
        op = ArithOp::kAdd;
      } else if (ast.name == "-") {
        op = ArithOp::kSub;
      } else if (ast.name == "*") {
        op = ArithOp::kMul;
      } else {
        op = ArithOp::kDiv;
      }
      *out = Expr::Arith(op, std::move(kids[0]), std::move(kids[1]));
      return Status::OK();
    }
    case AstExprKind::kFuncCall: {
      std::vector<ExprPtr> kids;
      RDB_RETURN_NOT_OK(BuildChildren(ctx, ast, &kids));
      // Scalar function names are case-insensitive; the IR spells them
      // lowercase ("year", "month", "bin").
      *out = Expr::Func(ToLower(ast.name), std::move(kids));
      return Status::OK();
    }
    case AstExprKind::kBetween: {
      // BETWEEN normalizes to range conjuncts at lowering time, so the
      // recycler's range machinery (and the canonicalizer) see plain
      // comparisons: a BETWEEN x AND y  =>  a >= x AND a <= y.
      std::vector<ExprPtr> kids;
      RDB_RETURN_NOT_OK(BuildChildren(ctx, ast, &kids));
      const ExprPtr& value = kids[0];
      if (ast.negated) {
        *out = Expr::Or(Expr::Lt(value, kids[1]), Expr::Gt(value, kids[2]));
      } else {
        *out = Expr::And(Expr::Ge(value, kids[1]), Expr::Le(value, kids[2]));
      }
      return Status::OK();
    }
    case AstExprKind::kInList: {
      std::vector<ExprPtr> kids;
      RDB_RETURN_NOT_OK(BuildChildren(ctx, ast, &kids));
      ExprPtr in = Expr::In(std::move(kids[0]), ast.in_list);
      *out = ast.negated ? Expr::Not(std::move(in)) : std::move(in);
      return Status::OK();
    }
    case AstExprKind::kLike: {
      std::vector<ExprPtr> kids;
      RDB_RETURN_NOT_OK(BuildChildren(ctx, ast, &kids));
      const std::string& pat = ast.name;
      bool leading = !pat.empty() && pat.front() == '%';
      bool trailing = pat.size() >= 2 && pat.back() == '%';
      std::string core = pat.substr(leading ? 1 : 0,
                                    pat.size() - (leading ? 1 : 0) -
                                        (trailing ? 1 : 0));
      if (core.find('%') != std::string::npos || core.empty() ||
          (!leading && !trailing)) {
        return ctx.NameError(
            ast.pos, "unsupported LIKE pattern (use '%x%', 'x%' or '%x')");
      }
      if (leading && trailing) {
        *out = Expr::Like(ast.negated ? LikeKind::kNotContains
                                      : LikeKind::kContains,
                          std::move(kids[0]), std::move(core));
        return Status::OK();
      }
      ExprPtr like = Expr::Like(trailing ? LikeKind::kPrefix
                                         : LikeKind::kSuffix,
                                std::move(kids[0]), std::move(core));
      *out = ast.negated ? Expr::Not(std::move(like)) : std::move(like);
      return Status::OK();
    }
    case AstExprKind::kCase: {
      std::vector<ExprPtr> kids;
      RDB_RETURN_NOT_OK(BuildChildren(ctx, ast, &kids));
      *out = Expr::Case(std::move(kids[0]), std::move(kids[1]),
                        std::move(kids[2]));
      return Status::OK();
    }
  }
  return Status::Internal("unhandled AST expression kind");
}

AggFunc AggFuncFromName(const std::string& upper) {
  if (upper == "SUM") return AggFunc::kSum;
  if (upper == "COUNT") return AggFunc::kCount;
  if (upper == "MIN") return AggFunc::kMin;
  if (upper == "MAX") return AggFunc::kMax;
  return AggFunc::kAvg;
}

/// Deterministic default output name for an unaliased select item:
///   plain column     -> the column name
///   aggregate        -> fn_column ("sum_sales") or fn_expr
///   COUNT(*)         -> "count_star"
///   other expression -> the expression's display string
std::string DefaultName(const SelectItem& item) {
  if (item.count_star) return "count_star";
  if (!item.agg_func.empty()) {
    std::string fn = ToLower(item.agg_func);
    if (item.expr != nullptr && item.expr->kind == AstExprKind::kColumn) {
      return fn + "_" + item.expr->name;
    }
    return fn + "_expr";
  }
  if (item.expr->kind == AstExprKind::kColumn) return item.expr->name;
  return std::string();  // filled from the built expression's display
}

}  // namespace

Status LowerSelect(const SelectStmt& stmt, std::string_view sql,
                   const Catalog& catalog, PlanPtr* out) {
  LowerCtx ctx;
  ctx.sql = sql;

  // ---- FROM ----------------------------------------------------------
  TablePtr table;
  if (!stmt.from.is_function) {
    table = catalog.GetTable(stmt.from.name);
    if (table == nullptr) {
      return ctx.NameError(stmt.from.pos,
                           "unknown table '" + stmt.from.name + "'");
    }
    ctx.schema = &table->schema();
  }

  // ---- build expressions ---------------------------------------------
  ExprPtr where;
  if (stmt.where != nullptr) {
    RDB_RETURN_NOT_OK(BuildExpr(ctx, *stmt.where, &where));
  }
  bool has_agg = !stmt.group_by.empty();
  for (const SelectItem& item : stmt.items) {
    has_agg = has_agg || !item.agg_func.empty() || item.count_star;
  }
  if (stmt.select_star && has_agg) {
    return ctx.NameError(stmt.pos, "SELECT * cannot be combined with "
                                   "aggregates or GROUP BY");
  }

  struct LoweredItem {
    ExprPtr expr;        // null for aggregates
    AggItem agg;         // valid when is_agg
    bool is_agg = false;
    std::string out_name;
  };
  std::vector<LoweredItem> items;
  for (const SelectItem& item : stmt.items) {
    LoweredItem li;
    li.out_name = item.alias.empty() ? DefaultName(item) : item.alias;
    if (!item.agg_func.empty() || item.count_star) {
      li.is_agg = true;
      li.agg.fn = item.count_star ? AggFunc::kCount
                                  : AggFuncFromName(item.agg_func);
      if (item.count_star) {
        li.agg.arg = Expr::Literal(1);
      } else {
        RDB_RETURN_NOT_OK(BuildExpr(ctx, *item.expr, &li.agg.arg));
      }
      li.agg.out_name = li.out_name;
    } else {
      RDB_RETURN_NOT_OK(BuildExpr(ctx, *item.expr, &li.expr));
      if (li.out_name.empty()) li.out_name = li.expr->DisplayString();
    }
    items.push_back(std::move(li));
  }
  if (has_agg) {
    // Under aggregation every non-aggregate item must be a grouping
    // column (the engine has no implicit "any value" aggregate).
    for (size_t i = 0; i < items.size(); ++i) {
      if (items[i].is_agg) continue;
      const AstExpr& ast = *stmt.items[i].expr;
      bool is_group_col =
          ast.kind == AstExprKind::kColumn &&
          std::find(stmt.group_by.begin(), stmt.group_by.end(), ast.name) !=
              stmt.group_by.end();
      if (!is_group_col) {
        return ctx.NameError(stmt.items[i].pos,
                             "non-aggregate SELECT item must be a GROUP BY "
                             "column");
      }
    }
  }
  for (size_t gi = 0; gi < stmt.group_by.size(); ++gi) {
    if (ctx.schema != nullptr && !ctx.schema->Has(stmt.group_by[gi])) {
      return ctx.NameError(stmt.group_by_pos[gi],
                           "unknown column '" + stmt.group_by[gi] + "'");
    }
  }

  // ---- base scan with column pruning ---------------------------------
  PlanPtr node;
  if (stmt.from.is_function) {
    std::vector<ExprPtr> args;
    for (const AstExprPtr& a : stmt.from.args) {
      ExprPtr e;
      RDB_RETURN_NOT_OK(BuildExpr(ctx, *a, &e));
      args.push_back(std::move(e));
    }
    node = PlanNode::FunctionScanTemplate(stmt.from.name, std::move(args));
  } else {
    std::set<std::string> referenced;
    if (where != nullptr) where->CollectColumns(&referenced);
    for (const LoweredItem& li : items) {
      if (li.is_agg) {
        li.agg.arg->CollectColumns(&referenced);
      } else {
        li.expr->CollectColumns(&referenced);
      }
    }
    for (const std::string& g : stmt.group_by) referenced.insert(g);
    if (!has_agg) {
      // ORDER BY keys that are base columns must survive the scan; keys
      // naming computed outputs resolve against the projection instead.
      for (const OrderItem& o : stmt.order_by) {
        if (ctx.schema->Has(o.column)) referenced.insert(o.column);
      }
    }
    // Scan columns in table-schema order: syntactic column order in the
    // SELECT list never changes the scan subtree's key.
    std::vector<std::string> scan_cols;
    for (const Field& f : ctx.schema->fields()) {
      if (stmt.select_star || referenced.count(f.name) > 0) {
        scan_cols.push_back(f.name);
      }
    }
    if (scan_cols.empty()) {
      // SELECT COUNT(*) FROM t with no references still needs one column.
      scan_cols.push_back(ctx.schema->field(0).name);
    }
    node = PlanNode::Scan(stmt.from.name, std::move(scan_cols));
  }
  std::vector<std::string> scan_out =
      node->type() == OpType::kScan ? node->scan_columns()
                                    : std::vector<std::string>();

  // ---- WHERE ----------------------------------------------------------
  if (where != nullptr) node = PlanNode::Select(std::move(node), where);

  // ---- aggregation / projection ---------------------------------------
  if (has_agg) {
    std::vector<AggItem> aggs;
    for (const LoweredItem& li : items) {
      if (li.is_agg) aggs.push_back(li.agg);
    }
    node = PlanNode::Aggregate(std::move(node), stmt.group_by, aggs);
    // Aggregate emits group columns then aggregates; reorder/rename via a
    // projection only when the SELECT list differs from that shape.
    std::vector<std::string> natural = stmt.group_by;
    for (const AggItem& a : aggs) natural.push_back(a.out_name);
    std::vector<std::string> wanted;
    for (const LoweredItem& li : items) wanted.push_back(li.out_name);
    bool identity = wanted.size() == natural.size();
    for (size_t i = 0; identity && i < wanted.size(); ++i) {
      identity = wanted[i] == natural[i];
      if (identity && !items[i].is_agg) {
        // A renamed group column always needs the projection.
        identity = items[i].out_name == stmt.items[i].expr->name;
      }
    }
    if (!identity) {
      std::vector<ProjItem> proj;
      for (const LoweredItem& li : items) {
        const std::string& source =
            li.is_agg ? li.agg.out_name
                      : stmt.items[&li - items.data()].expr->name;
        proj.push_back({Expr::Column(source), li.out_name});
      }
      node = PlanNode::Project(std::move(node), std::move(proj));
    }
  } else if (!stmt.select_star) {
    // Plain SELECT list: skip the projection when it is exactly the scan
    // output (all bare columns, original names, schema order).
    bool identity = node->type() != OpType::kFunctionScan &&
                    items.size() == scan_out.size();
    for (size_t i = 0; identity && i < items.size(); ++i) {
      identity = items[i].expr->kind() == ExprKind::kColumnRef &&
                 items[i].expr->column_name() == scan_out[i] &&
                 items[i].out_name == scan_out[i];
    }
    if (!identity) {
      std::vector<ProjItem> proj;
      for (const LoweredItem& li : items) {
        proj.push_back({li.expr, li.out_name});
      }
      node = PlanNode::Project(std::move(node), std::move(proj));
    }
  }

  // ---- ORDER BY / LIMIT ----------------------------------------------
  if (!stmt.order_by.empty()) {
    std::vector<SortKey> keys;
    for (const OrderItem& o : stmt.order_by) {
      keys.push_back({o.column, o.ascending});
    }
    if (stmt.has_limit && stmt.limit > 0) {
      // ORDER BY + LIMIT lowers straight to TopN — the shape the
      // recycler's top-N subsumption rule matches.
      node = PlanNode::TopN(std::move(node), std::move(keys), stmt.limit);
    } else {
      node = PlanNode::OrderBy(std::move(node), std::move(keys));
      if (stmt.has_limit) node = PlanNode::Limit(std::move(node), stmt.limit);
    }
  } else if (stmt.has_limit) {
    node = PlanNode::Limit(std::move(node), stmt.limit);
  }

  *out = std::move(node);
  return Status::OK();
}

Status SqlToPlan(std::string_view sql, const Catalog& catalog, PlanPtr* out) {
  SelectStmt stmt;
  RDB_RETURN_NOT_OK(Parse(sql, &stmt));
  return LowerSelect(stmt, sql, catalog, out);
}

}  // namespace sql
}  // namespace recycledb
