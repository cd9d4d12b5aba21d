// Table-valued function registry (used by FunctionScan plan nodes).
//
// The SkyServer workload's fGetNearbyObjEq is registered here; the plan
// binder resolves output schemas through this registry and the executor
// calls eval_fn to produce the rows.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/catalog.h"
#include "storage/table.h"

namespace recycledb {

/// A named table-valued function.
struct TableFunction {
  std::string name;
  /// Output schema for a given argument vector.
  std::function<Schema(const std::vector<Datum>&)> schema_fn;
  /// Produces the full result (blocking). Receives the catalog so it can
  /// read base tables.
  std::function<TablePtr(const Catalog&, const std::vector<Datum>&)> eval_fn;
  /// Base tables it reads (for recycler invalidation on updates).
  std::vector<std::string> base_tables;
  /// Declared argument types. When non-empty, the schema rule
  /// (PlanNode::DeriveSchema, applied by ValidatePlan and Bind) enforces
  /// arity and types before eval_fn can see user-bound arguments (eval_fn
  /// aborts on bad input otherwise).
  std::vector<TypeId> arg_types;
};

/// Process-wide registry of table functions. Thread-safe.
class TableFunctionRegistry {
 public:
  static TableFunctionRegistry& Global();

  /// Registers or replaces a function.
  void Register(TableFunction fn);

  /// Looks up a function; nullptr if absent. The pointer stays valid for
  /// the process lifetime (functions are never erased).
  const TableFunction* Get(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<TableFunction>> fns_;
};

}  // namespace recycledb
