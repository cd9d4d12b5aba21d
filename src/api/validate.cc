#include "api/validate.h"

#include <vector>

namespace recycledb {

namespace {

Status NodeError(const PlanNode& node, const Status& cause) {
  return Status::InvalidArgument(cause.message() + "\nin plan:\n" +
                                 node.Explain());
}

// Checks the subtree at `node` by PlanNode::DeriveSchema; on success
// `*out` points at its output schema: the bound one, or one derived into
// `*derived`.
Status ValidateNode(const PlanNode& node, const Catalog& catalog,
                    Schema* derived, const Schema** out) {
  // A subtree bound under the catalog's current schema generation already
  // passed the rule (Bind applies it too). This is what makes
  // re-executing a prepared statement cheap: only the freshly substituted
  // parameterized spine is walked. A binding from before a ReplaceTable
  // is rechecked.
  if (node.bound_under(catalog)) {
    *out = &node.output_schema();
    return Status::OK();
  }
  const size_t n = node.children().size();
  std::vector<Schema> child_derived(n);
  std::vector<const Schema*> inputs(n);
  for (size_t i = 0; i < n; ++i) {
    RDB_RETURN_NOT_OK(ValidateNode(*node.children()[i], catalog,
                                   &child_derived[i], &inputs[i]));
  }
  Status st = node.DeriveSchema(catalog, inputs, derived);
  if (!st.ok()) return NodeError(node, st);
  *out = derived;
  return Status::OK();
}

}  // namespace

Status ValidatePlan(const PlanPtr& plan, const Catalog& catalog,
                    Schema* out_schema) {
  if (plan == nullptr) return Status::InvalidArgument("plan is null");
  Schema derived;
  const Schema* schema = nullptr;
  RDB_RETURN_NOT_OK(ValidateNode(*plan, catalog, &derived, &schema));
  if (out_schema != nullptr) *out_schema = *schema;
  return Status::OK();
}

}  // namespace recycledb
