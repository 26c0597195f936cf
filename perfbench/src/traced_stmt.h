#ifndef POLYBENCH_TRACED_STMT_H_
#define POLYBENCH_TRACED_STMT_H_

#include <string>
#include <utility>
#include <vector>

#include "common/exec_options.h"
#include "query/result.h"
#include "storage/database.h"

namespace polybench {

/// Database::Execute(sql, opts) spelled out as the public calls it makes —
/// SqlParser::Parse, Optimizer::Optimize, ResourceGovernor::AdmitQuery (when
/// a governor is attached), QueryCompiler::CanCompile/Execute, and
/// Executor::Execute with ExecOptions::trace on — each wrapped in a span
/// under one "query.stmt" span that carries `stmt_attrs`. The executor's
/// operator tree is grafted under "query.execute". Keep in step with
/// Database::Execute in src/storage/database.cpp.
poly::StatusOr<poly::ResultSet> TracedExecute(
    poly::Database* db, const std::string& sql, const poly::ExecOptions& opts,
    const std::vector<std::pair<std::string, double>>& stmt_attrs = {});

}  // namespace polybench

#endif  // POLYBENCH_TRACED_STMT_H_
