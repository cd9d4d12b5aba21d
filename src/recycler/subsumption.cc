#include "recycler/subsumption.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>

#include "common/macros.h"
#include "common/string_util.h"

namespace recycledb {

ConjunctSet ConjunctKeys(const ExprPtr& pred, const Schema* input) {
  return ConjunctSet(KeyConjuncts(pred, input).keys);
}

bool ConjunctsImplied(const ConjunctSet& cached_keys,
                      const ConjunctSet& query_keys) {
  if ((cached_keys.sig() & ~query_keys.sig()) != 0) return false;
  return std::includes(query_keys.keys().begin(), query_keys.keys().end(),
                       cached_keys.keys().begin(), cached_keys.keys().end());
}

bool MaySubsume(const RGNode& cand, OpType query_type,
                const ConjunctSet& query_keys) {
  if (cand.param_node == nullptr || cand.type != query_type) return false;
  return query_type != OpType::kSelect ||
         ConjunctsImplied(cand.conjunct_keys, query_keys);
}

namespace {

/// `query_keys` (over `input`) equal the positional `cand_keys`.
bool SameSortKeys(const std::vector<SortKey>& query_keys, const Schema& input,
                  const std::vector<SortKey>& cand_keys) {
  if (query_keys.size() != cand_keys.size()) return false;
  for (size_t i = 0; i < query_keys.size(); ++i) {
    if (OrdinalName(input.IndexOfChecked(query_keys[i].column)) !=
            cand_keys[i].column ||
        query_keys[i].ascending != cand_keys[i].ascending) {
      return false;
    }
  }
  return true;
}

/// Names for the columns of a cached result, s0..s<k>, each made fresh
/// against `scope`: names the derived plan puts beside them.
std::vector<std::string> SyntheticNames(const Table& cached,
                                        std::set<std::string> scope) {
  std::vector<std::string> names;
  for (int i = 0; i < cached.schema().num_fields(); ++i) {
    names.push_back(FreshName(StrFormat("s%d", i), &scope));
  }
  return names;
}

SubsumptionPlan TrySelect(const PlanNode& query_node, const Schema& input,
                          const RGNode& cand, const Schema& cand_input,
                          TablePtr cached) {
  // The candidate's conjuncts come from its parameters, not from the
  // conjunct_keys copy MaySubsume reads: the prefilter may only skip work,
  // so this check never depends on it.
  const ConjunctSet cand_keys =
      ConjunctKeys(cand.param_node->predicate(), &cand_input);
  std::vector<ExprPtr> residual;
  ConjunctSet query_keys;
  for (const auto& c : SplitConjuncts(query_node.predicate())) {
    std::string key = c->Key(&input);
    if (!cand_keys.Contains(key)) residual.push_back(c);
    query_keys.Insert(std::move(key));
  }
  // Every cached conjunct must be implied by the query's (conjunct subset):
  // otherwise the cached result dropped rows the query needs.
  if (!ConjunctsImplied(cand_keys, query_keys)) return {};

  SubsumptionPlan out;
  // The select's output schema equals its child's; the cached columns are
  // positionally the child's columns.
  out.cached_scan = PlanNode::CachedScan(
      std::move(cached), query_node.output_schema().Names());
  out.plan = residual.empty()
                 ? out.cached_scan
                 : PlanNode::Select(out.cached_scan, AndAll(residual));
  return out;
}

SubsumptionPlan TryTopN(const PlanNode& query_node, const Schema& input,
                        const RGNode& cand, TablePtr cached) {
  const PlanNode& cp = *cand.param_node;
  if (cp.limit() < query_node.limit()) return {};
  if (!SameSortKeys(query_node.sort_keys(), input, cp.sort_keys())) {
    return {};
  }
  SubsumptionPlan out;
  out.cached_scan = PlanNode::CachedScan(
      std::move(cached), query_node.output_schema().Names());
  // The cached top-M is emitted in sort order, so top-N is its prefix.
  out.plan = PlanNode::Limit(out.cached_scan, query_node.limit());
  return out;
}

SubsumptionPlan TryProject(const PlanNode& query_node, const Schema& input,
                           const RGNode& cand, const Schema& cand_input,
                           TablePtr cached) {
  const PlanNode& cp = *cand.param_node;
  std::vector<int> positions;
  for (const auto& item : query_node.projections()) {
    const std::string key = item.expr->Key(&input);
    int pos = -1;
    for (size_t j = 0; j < cp.projections().size(); ++j) {
      if (cp.projections()[j].expr->Key(&cand_input) == key) {
        pos = static_cast<int>(j);
        break;
      }
    }
    if (pos < 0) return {};  // column subsumption requires a superset
    positions.push_back(pos);
  }
  const std::vector<std::string> names = SyntheticNames(*cached, {});
  std::vector<ProjItem> items;
  for (size_t i = 0; i < positions.size(); ++i) {
    items.push_back({Expr::Column(names[positions[i]]),
                     query_node.projections()[i].out_name});
  }
  SubsumptionPlan out;
  out.cached_scan = PlanNode::CachedScan(std::move(cached), names);
  out.plan = PlanNode::Project(out.cached_scan, std::move(items));
  return out;
}

SubsumptionPlan TryAggregate(const PlanNode& query_node, const Schema& input,
                             const RGNode& cand, const Schema& cand_input,
                             TablePtr cached) {
  const PlanNode& cp = *cand.param_node;
  const int cand_groups = static_cast<int>(cp.group_by().size());

  // Map each query group column to its position in the cached result.
  std::vector<int> group_pos;
  for (const auto& q : query_node.group_by()) {
    const std::string gq = OrdinalName(input.IndexOfChecked(q));
    int pos = -1;
    for (int j = 0; j < cand_groups; ++j) {
      if (cp.group_by()[j] == gq) {
        pos = j;
        break;
      }
    }
    if (pos < 0) return {};  // query grouping must be coarser or equal
    group_pos.push_back(pos);
  }

  // The query's group names go beside the synthetic ones.
  std::vector<std::string> names = SyntheticNames(
      *cached, {query_node.group_by().begin(), query_node.group_by().end()});
  SubsumptionPlan out;
  if (static_cast<int>(query_node.group_by().size()) == cand_groups) {
    // Column subsumption: same grouping; every requested aggregate must be
    // present verbatim -> project out the needed columns.
    std::vector<ProjItem> items;
    for (size_t i = 0; i < group_pos.size(); ++i) {
      items.push_back(
          {Expr::Column(names[group_pos[i]]), query_node.group_by()[i]});
    }
    for (const auto& a : query_node.aggregates()) {
      const int j = FindAggregate(cp.aggregates(), &cand_input, a.fn,
                                  a.arg->Key(&input));
      if (j < 0) return {};
      items.push_back({Expr::Column(names[cand_groups + j]), a.out_name});
    }
    out.cached_scan = PlanNode::CachedScan(std::move(cached), names);
    out.plan = PlanNode::Project(out.cached_scan, std::move(items));
    return out;
  }

  // Tuple subsumption: the cached grouping is strictly finer. The scan
  // gives the query's group columns their final names, and the cached
  // aggregates are the partials the query's items re-aggregate from.
  for (size_t i = 0; i < group_pos.size(); ++i) {
    names[group_pos[i]] = query_node.group_by()[i];
  }
  std::vector<AggItem> partials = cp.aggregates();
  for (size_t j = 0; j < partials.size(); ++j) {
    partials[j].out_name = names[cand_groups + j];
  }
  std::optional<Reaggregation> r = Reaggregate(
      query_node.aggregates(), &input, partials, &cand_input,
      query_node.group_by(), "r", {names.begin(), names.end()});
  if (!r.has_value()) return {};
  out.cached_scan = PlanNode::CachedScan(std::move(cached), names);
  out.plan = PlanNode::Project(
      PlanNode::Aggregate(out.cached_scan, query_node.group_by(),
                          std::move(r->outer)),
      std::move(r->final));
  return out;
}

}  // namespace

SubsumptionPlan TrySubsumption(const PlanNode& query_node, const RGNode& cand,
                               TablePtr cached) {
  if (cand.param_node == nullptr || cached == nullptr) return {};
  if (cand.type != query_node.type() || query_node.num_children() != 1) {
    return {};
  }
  const Schema& input = query_node.child()->output_schema();
  // The candidate's parameters key over its child's output as the query's
  // key over theirs.
  const Schema cand_input = PositionalInput(*cand.children[0]);
  switch (query_node.type()) {
    case OpType::kSelect:
      return TrySelect(query_node, input, cand, cand_input, std::move(cached));
    case OpType::kTopN:
      return TryTopN(query_node, input, cand, std::move(cached));
    case OpType::kProject:
      return TryProject(query_node, input, cand, cand_input,
                        std::move(cached));
    case OpType::kAggregate:
      return TryAggregate(query_node, input, cand, cand_input,
                          std::move(cached));
    default:
      return {};
  }
}

namespace {

/// `column <op> literal` for one end of an interval.
ExprPtr BoundExpr(const std::string& column, const RangeBound& b,
                  bool is_lower) {
  CompareOp op = is_lower ? (b.inclusive ? CompareOp::kGe : CompareOp::kGt)
                          : (b.inclusive ? CompareOp::kLe : CompareOp::kLt);
  return Expr::Compare(op, Expr::Column(column), Expr::Literal(b.value));
}

bool NumericDatum(const Datum& d) {
  return !std::holds_alternative<std::monostate>(d) &&
         IsNumeric(DatumType(d));
}

/// Drops the empty gaps: besides plainly empty intervals, zero-width gaps
/// on integer columns — e.g. slices [.,100] and [101,.) stitched for a
/// query spanning both leave the "gap" (100, 101), which no integer can
/// ever satisfy. Without this the stitch builds (and executes) a delta
/// branch guaranteed to return nothing. Only genuinely integer domains
/// qualify: a double column with integer literal bounds has values
/// between them.
struct GapFilter {
  bool integer_domain = false;

  GapFilter(const PlanNode& query_node, const RangeSpec& spec) {
    const Schema& schema = query_node.output_schema();
    const int col = schema.IndexOf(spec.column);
    const TypeId type = col >= 0 ? schema.field(col).type : TypeId::kDouble;
    integer_domain = type == TypeId::kInt32 || type == TypeId::kInt64 ||
                     type == TypeId::kDate;
  }
  bool Empty(const ColumnInterval& gap) const {
    return IntervalEmpty(gap) ||
           (integer_domain && IntervalEmptyOnIntegerDomain(gap));
  }
};

/// Share of query interval `q` that `clip` covers, or -1 when `q` is not
/// measurable (then the pieces split the credit evenly): unbounded,
/// non-numeric, empty, or of a width that is not finite (a NaN or
/// infinite bound).
double ClipFraction(const ColumnInterval& q, const ColumnInterval& clip) {
  const bool measurable = !q.lo.unbounded && !q.hi.unbounded &&
                          NumericDatum(q.lo.value) && NumericDatum(q.hi.value);
  const double qlen =
      measurable ? DatumAsDouble(q.hi.value) - DatumAsDouble(q.lo.value) : 0;
  if (!measurable || !std::isfinite(qlen) || qlen <= 0) return -1;
  double len = DatumAsDouble(clip.hi.value) - DatumAsDouble(clip.lo.value);
  return std::max(0.0, std::min(1.0, len / qlen));
}

/// Fills `gap` with the fewest of `cold` (greedy: at each point the slice
/// that covers it and reaches furthest), appending the uses and what
/// stays uncovered.
void CoverGap(const ColumnInterval& gap,
              const std::vector<const IntervalCandidate*>& cold,
              const GapFilter& filter, std::vector<StitchLayout::Use>* uses,
              std::vector<ColumnInterval>* rest) {
  RangeBound cursor = gap.lo;
  for (;;) {
    const ColumnInterval rem{cursor, gap.hi};
    if (filter.Empty(rem)) return;
    const IntervalCandidate* best = nullptr;
    ColumnInterval best_clip;
    const IntervalCandidate* next = nullptr;  // earliest start past cursor
    for (const IntervalCandidate* c : cold) {
      const ColumnInterval& r = c->spec->range;
      if (LoTighter(r.lo, cursor)) {
        if (Overlaps(r, rem) &&
            (next == nullptr || LoTighter(next->spec->range.lo, r.lo))) {
          next = c;
        }
        continue;
      }
      ColumnInterval clip = Intersect(r, rem);
      if (IntervalEmpty(clip)) continue;
      if (best == nullptr || HiTighter(best_clip.hi, clip.hi)) {
        best = c;
        best_clip = clip;
      }
    }
    if (best == nullptr) {
      if (next == nullptr) {
        rest->push_back(rem);
        return;
      }
      ColumnInterval uncovered{cursor, ComplementHi(next->spec->range.lo)};
      if (!filter.Empty(uncovered)) rest->push_back(uncovered);
      cursor = next->spec->range.lo;
      continue;
    }
    uses->push_back({best, best_clip});
    if (best_clip.hi.unbounded) return;  // covered through +inf
    cursor = ComplementLo(best_clip.hi);
  }
}

}  // namespace

StitchLayout PlanPartialStitch(
    const PlanNode& query_node, const RangeSpec& spec,
    const std::vector<IntervalCandidate>& candidates) {
  StitchLayout out;
  const ColumnInterval& q = spec.range;

  std::vector<const IntervalCandidate*> hot, cold;
  for (const IntervalCandidate& c : candidates) {
    if (!ConjunctsImplied(c.spec->other_keys, spec.other_keys)) continue;
    if (!Overlaps(c.spec->range, q)) continue;
    (c.cached != nullptr ? hot : cold).push_back(&c);
  }
  // Fully deterministic candidate order — ascending by lo, equal-lo ties
  // broken by the wider hi (it absorbs the sweep; a narrower twin clips
  // to empty and drops out), then by graph insertion id. Without the tie
  // breaks the order inherits the interval-index bucket order, which
  // depends on admission/eviction history, and the stitched plan shape
  // (hence Explain text and goldens) would differ across engines that
  // executed the same workload. The cold cover's ties go to the first
  // candidate in this order too.
  auto by_lo = [](const IntervalCandidate* a, const IntervalCandidate* b) {
    const ColumnInterval& ra = a->spec->range;
    const ColumnInterval& rb = b->spec->range;
    if (LoTighter(rb.lo, ra.lo)) return true;
    if (LoTighter(ra.lo, rb.lo)) return false;
    if (HiTighter(rb.hi, ra.hi)) return true;
    if (HiTighter(ra.hi, rb.hi)) return false;
    return a->node->id < b->node->id;
  };
  std::sort(hot.begin(), hot.end(), by_lo);
  std::sort(cold.begin(), cold.end(), by_lo);
  const GapFilter filter(query_node, spec);

  // Sweep the query interval left to right over the hot slices,
  // assigning each position to the first slice that covers it. Adjacent
  // uses meet with complementary open/closed boundaries
  // (ComplementLo/Hi), so boundary values land in exactly one branch of
  // the union.
  std::vector<ColumnInterval> gaps;
  RangeBound cursor = q.lo;
  bool exhausted = false;
  for (const IntervalCandidate* c : hot) {
    ColumnInterval rem{cursor, q.hi};
    if (IntervalEmpty(rem)) {
      exhausted = true;
      break;
    }
    ColumnInterval clip = Intersect(c->spec->range, rem);
    if (IntervalEmpty(clip)) continue;  // already covered by earlier slices
    if (LoTighter(clip.lo, cursor)) {
      ColumnInterval gap{cursor, ComplementHi(clip.lo)};
      if (!filter.Empty(gap)) gaps.push_back(gap);
    }
    out.uses.push_back({c, clip});
    if (clip.hi.unbounded) {  // covered through +inf (q.hi is unbounded)
      exhausted = true;
      break;
    }
    cursor = ComplementLo(clip.hi);
  }
  if (!exhausted) {
    ColumnInterval rem{cursor, q.hi};
    if (!filter.Empty(rem)) gaps.push_back(rem);
  }
  // Cold slices only fill what the hot ones leave open.
  if (!cold.empty()) {
    for (const ColumnInterval& gap : gaps) {
      CoverGap(gap, cold, filter, &out.uses, &out.gaps);
    }
  } else {
    out.gaps = std::move(gaps);
  }
  if (out.uses.empty()) return {};

  const size_t branches = out.uses.size() + (out.gaps.empty() ? 0 : 1);
  for (const StitchLayout::Use& use : out.uses) {
    const double f = ClipFraction(q, use.clip);
    out.covered_fraction += f < 0 ? 1.0 / branches : f;
  }
  out.covered_fraction = std::min(1.0, out.covered_fraction);
  return out;
}

PartialPlan BuildPartialStitch(const PlanNode& query_node,
                               const PlanPtr& child_plan,
                               const RangeSpec& spec,
                               const StitchLayout& layout,
                               const std::vector<TablePtr>& tables) {
  PartialPlan out;
  const std::vector<std::string> child_names =
      query_node.output_schema().Names();
  const GapFilter filter(query_node, spec);
  std::vector<PlanPtr> branches;
  std::vector<ColumnInterval> gaps = layout.gaps;
  bool unread = false;
  for (size_t i = 0; i < layout.uses.size(); ++i) {
    const StitchLayout::Use& use = layout.uses[i];
    if (tables[i] == nullptr) {
      if (!filter.Empty(use.clip)) gaps.push_back(use.clip);
      unread = true;
      continue;
    }
    const RangeSpec& slice = *use.source->spec;
    // Compensation: residual conjuncts the slice did not apply, plus the
    // clip bounds that are tighter than the slice's own (a clip bound
    // equal to the slice bound is already enforced by the cached data).
    std::vector<ExprPtr> comp;
    for (const ExprPtr& o : spec.others) {
      if (!slice.other_keys.Contains(o->Key(&query_node.output_schema()))) {
        comp.push_back(o);
      }
    }
    if (LoTighter(use.clip.lo, slice.range.lo)) {
      comp.push_back(BoundExpr(spec.column, use.clip.lo, /*is_lower=*/true));
    }
    if (HiTighter(use.clip.hi, slice.range.hi)) {
      comp.push_back(BoundExpr(spec.column, use.clip.hi, /*is_lower=*/false));
    }
    PlanPtr scan = PlanNode::CachedScan(tables[i], child_names);
    PlanPtr piece =
        comp.empty() ? scan : PlanNode::Select(scan, AndAll(comp));
    branches.push_back(piece);
    out.reuse_pieces.push_back(
        {piece, scan, use.source->node, ClipFraction(spec.range, use.clip)});
  }
  if (out.reuse_pieces.empty()) return {};
  if (unread) {
    std::stable_sort(gaps.begin(), gaps.end(),
                     [](const ColumnInterval& a, const ColumnInterval& b) {
                       return LoTighter(b.lo, a.lo);
                     });
  }

  if (!gaps.empty()) {
    // One compensated delta scan for every gap, so the child subtree
    // executes at most once per stitched plan: the query's non-range
    // conjuncts AND the disjunction of the gap ranges. Every gap has at
    // least one bound (it is contained in the query interval, which has
    // one), so each disjunct is non-trivial.
    std::vector<ExprPtr> gap_preds;
    for (const ColumnInterval& gap : gaps) {
      std::vector<ExprPtr> conj;
      if (!gap.lo.unbounded) {
        conj.push_back(BoundExpr(spec.column, gap.lo, /*is_lower=*/true));
      }
      if (!gap.hi.unbounded) {
        conj.push_back(BoundExpr(spec.column, gap.hi, /*is_lower=*/false));
      }
      ExprPtr gap_pred = AndAll(conj);
      if (gap_pred != nullptr) gap_preds.push_back(std::move(gap_pred));
    }
    if (gap_preds.empty()) return {};  // cannot express the remainder
    ExprPtr ranges = gap_preds[0];
    for (size_t i = 1; i < gap_preds.size(); ++i) {
      ranges = Expr::Or(ranges, gap_preds[i]);
    }
    std::vector<ExprPtr> conj = spec.others;
    conj.push_back(ranges);
    branches.push_back(PlanNode::Select(child_plan, AndAll(conj)));
    out.num_delta_pieces = 1;
  }

  // Unmeasurable interval: split the credit evenly across all branches.
  for (PartialPiece& p : out.reuse_pieces) {
    if (p.fraction < 0) p.fraction = 1.0 / branches.size();
    out.covered_fraction += p.fraction;
  }
  out.covered_fraction = std::min(1.0, out.covered_fraction);

  out.plan = branches.size() == 1 ? branches[0]
                                  : PlanNode::UnionAll(std::move(branches));
  return out;
}

}  // namespace recycledb
