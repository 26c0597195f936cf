#include "engines/planning/planning.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace poly {

StatusOr<std::vector<double>> Disaggregate(double total,
                                           const std::vector<double>& weights) {
  if (weights.empty()) return Status::InvalidArgument("no weights");
  double sum = 0;
  for (double w : weights) {
    if (w < 0) return Status::InvalidArgument("negative weight");
    sum += w;
  }
  if (sum == 0) return Status::InvalidArgument("weights sum to zero");
  std::vector<double> out(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) out[i] = total * weights[i] / sum;
  return out;
}

StatusOr<std::vector<int64_t>> DisaggregateInt(int64_t total,
                                               const std::vector<double>& weights) {
  POLY_ASSIGN_OR_RETURN(std::vector<double> exact,
                        Disaggregate(static_cast<double>(total), weights));
  std::vector<int64_t> out(exact.size());
  std::vector<std::pair<double, size_t>> remainders(exact.size());
  int64_t assigned = 0;
  for (size_t i = 0; i < exact.size(); ++i) {
    out[i] = static_cast<int64_t>(std::floor(exact[i]));
    assigned += out[i];
    remainders[i] = {exact[i] - std::floor(exact[i]), i};
  }
  // Largest remainders absorb the leftover units, ties by index (stable).
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  int64_t leftover = total - assigned;
  for (int64_t i = 0; i < leftover && i < static_cast<int64_t>(out.size()); ++i) {
    ++out[remainders[static_cast<size_t>(i)].second];
  }
  return out;
}

StatusOr<PlanningEngine> PlanningEngine::Create(TransactionManager* tm,
                                                ColumnTable* plan_table) {
  POLY_ASSIGN_OR_RETURN(size_t version_col, plan_table->schema().IndexOf("version"));
  POLY_ASSIGN_OR_RETURN(size_t value_col, plan_table->schema().IndexOf("value"));
  if (plan_table->schema().column(version_col).type != DataType::kInt64 ||
      plan_table->schema().column(value_col).type != DataType::kDouble) {
    return Status::InvalidArgument("plan table needs version INT64 and value DOUBLE");
  }
  return PlanningEngine(tm, plan_table, version_col, value_col);
}

std::vector<uint64_t> PlanningEngine::VersionRows(const ColumnTable::ReadGuard& g,
                                                  const ReadView& view,
                                                  int64_t version) const {
  std::vector<uint64_t> rows;
  g.ScanVisible(view, [&](uint64_t r) {
    Value v = g.GetValue(r, version_col_);
    if (!v.is_null() && v.AsInt() == version) rows.push_back(r);
  });
  return rows;
}

StatusOr<uint64_t> PlanningEngine::CopyVersion(int64_t from_version, int64_t to_version,
                                               double factor) {
  ReadView view = tm_->AutoCommitView();
  ColumnTable::ReadGuard g(table_);
  if (!VersionRows(g, view, to_version).empty()) {
    return Status::AlreadyExists("plan version " + std::to_string(to_version) +
                                 " already populated");
  }
  std::vector<uint64_t> source = VersionRows(g, view, from_version);
  if (source.empty()) {
    return Status::NotFound("plan version " + std::to_string(from_version) + " empty");
  }
  auto txn = tm_->Begin();
  for (uint64_t r : source) {
    Row row = g.GetRow(r);
    row[version_col_] = Value::Int(to_version);
    row[value_col_] = Value::Dbl(row[value_col_].NumericValue() * factor);
    POLY_RETURN_IF_ERROR(tm_->Insert(txn.get(), table_, row));
  }
  POLY_RETURN_IF_ERROR(tm_->Commit(txn.get()));
  return source.size();
}

Status PlanningEngine::DisaggregateVersion(int64_t version, double new_total) {
  ReadView view = tm_->AutoCommitView();
  ColumnTable::ReadGuard g(table_);
  std::vector<uint64_t> rows = VersionRows(g, view, version);
  if (rows.empty()) {
    return Status::NotFound("plan version " + std::to_string(version) + " empty");
  }
  std::vector<double> weights;
  weights.reserve(rows.size());
  for (uint64_t r : rows) {
    weights.push_back(g.GetValue(r, value_col_).NumericValue());
  }
  // All-zero plans disaggregate uniformly.
  double sum = 0;
  for (double w : weights) sum += w;
  if (sum == 0) std::fill(weights.begin(), weights.end(), 1.0);
  POLY_ASSIGN_OR_RETURN(std::vector<double> parts, Disaggregate(new_total, weights));
  auto txn = tm_->Begin();
  for (size_t i = 0; i < rows.size(); ++i) {
    Row row = g.GetRow(rows[i]);
    row[value_col_] = Value::Dbl(parts[i]);
    POLY_RETURN_IF_ERROR(tm_->Update(txn.get(), table_, rows[i], row));
  }
  return tm_->Commit(txn.get());
}

StatusOr<double> PlanningEngine::VersionTotal(int64_t version) const {
  ReadView view = tm_->AutoCommitView();
  ColumnTable::ReadGuard g(table_);
  std::vector<uint64_t> rows = VersionRows(g, view, version);
  if (rows.empty()) {
    return Status::NotFound("plan version " + std::to_string(version) + " empty");
  }
  double total = 0;
  for (uint64_t r : rows) total += g.GetValue(r, value_col_).NumericValue();
  return total;
}

std::vector<int64_t> PlanningEngine::Versions() const {
  std::set<int64_t> versions;
  ReadView view = tm_->AutoCommitView();
  ColumnTable::ReadGuard g(table_);
  g.ScanVisible(view, [&](uint64_t r) {
    Value v = g.GetValue(r, version_col_);
    if (!v.is_null()) versions.insert(v.AsInt());
  });
  return std::vector<int64_t>(versions.begin(), versions.end());
}

uint64_t PlanningEngine::VersionRowCount(int64_t version) const {
  ReadView view = tm_->AutoCommitView();
  return VersionRows(ColumnTable::ReadGuard(table_), view, version).size();
}

}  // namespace poly
