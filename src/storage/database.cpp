#include "storage/database.h"

#include "common/thread_pool.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "query/sql_parser.h"
#include "resource/governor.h"
#include "storage/mvcc.h"

namespace poly {

StatusOr<ColumnTable*> Database::CreateTable(const std::string& name, Schema schema,
                                             bool compress_main) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.count(name) || row_tables_.count(name)) {
    return Status::AlreadyExists("table '" + name + "' exists");
  }
  auto table = std::make_shared<ColumnTable>(name, std::move(schema), compress_main);
  if (auto* gov = resource_governor()) {
    table->BindMemoryBudget(gov->storage_node());
  }
  ColumnTable* ptr = table.get();
  tables_.emplace(name, std::move(table));
  return ptr;
}

StatusOr<RowTable*> Database::CreateRowTable(const std::string& name, Schema schema) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.count(name) || row_tables_.count(name)) {
    return Status::AlreadyExists("table '" + name + "' exists");
  }
  auto table = std::make_unique<RowTable>(name, std::move(schema));
  RowTable* ptr = table.get();
  row_tables_.emplace(name, std::move(table));
  return ptr;
}

StatusOr<ColumnTable*> Database::GetTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table '" + name + "'");
  return it->second.get();
}

StatusOr<std::shared_ptr<ColumnTable>> Database::PinTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table '" + name + "'");
  return it->second;
}

StatusOr<RowTable*> Database::GetRowTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = row_tables_.find(name);
  if (it == row_tables_.end()) return Status::NotFound("no row table '" + name + "'");
  return it->second.get();
}

Status Database::DropTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.erase(name) > 0) return Status::OK();
  if (row_tables_.erase(name) > 0) return Status::OK();
  return Status::NotFound("no table '" + name + "'");
}

Status Database::AdoptTable(std::unique_ptr<ColumnTable> table) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string& name = table->name();
  if (tables_.count(name) || row_tables_.count(name)) {
    return Status::AlreadyExists("table '" + name + "' exists");
  }
  // Tier movement and recovery bring tables in with data already loaded:
  // binding charges their current footprint so the budget sees page-ins.
  if (auto* gov = resource_governor()) {
    if (table->memory_budget() == nullptr) {
      table->BindMemoryBudget(gov->storage_node());
    }
  }
  tables_.emplace(name, std::shared_ptr<ColumnTable>(std::move(table)));
  return Status::OK();
}

std::vector<std::string> Database::TableNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size() + row_tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  for (const auto& [name, _] : row_tables_) names.push_back(name);
  return names;
}

void Database::set_exec_options(const ExecOptions& opts) {
  std::lock_guard<std::mutex> lock(mu_);
  exec_options_ = opts;
}

ExecOptions Database::exec_options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return exec_options_;
}

ThreadPool* Database::exec_pool(size_t num_threads) const {
  if (num_threads <= 1) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<ThreadPool>& pool = exec_pools_[num_threads];
  if (!pool) pool = std::make_unique<ThreadPool>(num_threads - 1);
  return pool.get();
}

StatusOr<ResultSet> Database::Execute(const std::string& sql) {
  return Execute(sql, LatestCommittedView(), exec_options());
}

StatusOr<ResultSet> Database::Execute(const std::string& sql,
                                      const ExecOptions& opts) {
  return Execute(sql, LatestCommittedView(), opts);
}

StatusOr<ResultSet> Database::Execute(const std::string& sql, ReadView view,
                                      const ExecOptions& opts) {
  SqlParser parser(this);
  POLY_ASSIGN_OR_RETURN(PlanPtr plan, parser.Parse(sql));
  Optimizer optimizer(/*pruner=*/nullptr, this);
  plan = optimizer.Optimize(plan);
  return Executor(this, view, opts).Execute(plan);
}

size_t Database::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t bytes = 0;
  for (const auto& [_, t] : tables_) bytes += t->MemoryBytes();
  for (const auto& [_, t] : row_tables_) bytes += t->MemoryBytes();
  return bytes;
}

}  // namespace poly
