#include "federation/federation.h"

#include "hadoop/table_connector.h"

namespace poly {

uint64_t EstimateRowBytes(const Row& row) {
  uint64_t bytes = 0;
  for (const Value& v : row) {
    switch (v.type()) {
      case DataType::kString:
      case DataType::kDocument:
        bytes += v.AsString().size() + 4;
        break;
      case DataType::kGeoPoint:
        bytes += 16;
        break;
      case DataType::kNull:
        bytes += 1;
        break;
      default:
        bytes += 8;
    }
  }
  return bytes;
}

RemoteTableSource::RemoteTableSource(const Database* remote_db,
                                     const TransactionManager* remote_tm,
                                     std::string table, bool supports_pushdown)
    : db_(remote_db), tm_(remote_tm), table_(std::move(table)), pushdown_(supports_pushdown) {
  auto t = db_->GetTable(table_);
  if (t.ok()) schema_ = (*t)->schema();
}

StatusOr<std::vector<Row>> RemoteTableSource::Scan(const ExprPtr& predicate) {
  POLY_ASSIGN_OR_RETURN(ColumnTable * t, db_->GetTable(table_));
  ReadView view = tm_->AutoCommitView();
  std::vector<Row> rows;
  ColumnTable::ReadGuard g(t);
  g.ScanVisible(view, [&](uint64_t r) {
    Row row = g.GetRow(r);
    // Pushdown: the remote side filters before shipping.
    if (pushdown_ && predicate && !predicate->EvalBool(row)) return;
    bytes_ += EstimateRowBytes(row);
    rows.push_back(std::move(row));
  });
  return rows;
}

StatusOr<std::unique_ptr<DfsFileSource>> DfsFileSource::Open(SimulatedDfs* dfs,
                                                             const std::string& path) {
  auto source = std::unique_ptr<DfsFileSource>(new DfsFileSource(dfs, path));
  // Parse just the schema up front.
  POLY_ASSIGN_OR_RETURN(std::string data, dfs->Read(path));
  POLY_ASSIGN_OR_RETURN(auto parsed, DfsTableConnector::ParseTsv(data));
  source->schema_ = std::move(parsed.first);
  return source;
}

StatusOr<std::vector<Row>> DfsFileSource::Scan(const ExprPtr& predicate) {
  POLY_ASSIGN_OR_RETURN(std::string data, dfs_->Read(path_));
  bytes_ += data.size();  // raw files always ship whole
  POLY_ASSIGN_OR_RETURN(auto parsed, DfsTableConnector::ParseTsv(data));
  return std::move(parsed.second);
}

Status FederationEngine::RegisterSource(const std::string& name,
                                        std::unique_ptr<ExternalSource> source) {
  if (sources_.count(name)) {
    return Status::AlreadyExists("virtual table '" + name + "' exists");
  }
  sources_.emplace(name, std::move(source));
  return Status::OK();
}

Status FederationEngine::Unregister(const std::string& name) {
  if (sources_.erase(name) == 0) {
    return Status::NotFound("no virtual table '" + name + "'");
  }
  return Status::OK();
}

StatusOr<ResultSet> FederationEngine::ScanVirtual(const std::string& name,
                                                  const ExprPtr& predicate) {
  POLY_ASSIGN_OR_RETURN(ExternalSource * source, Source(name));
  POLY_ASSIGN_OR_RETURN(std::vector<Row> rows, source->Scan(predicate));
  ResultSet out;
  for (size_t c = 0; c < source->schema().num_columns(); ++c) {
    out.column_names.push_back(source->schema().column(c).name);
  }
  // Compensation filter for sources that could not push down.
  for (auto& row : rows) {
    if (predicate && !source->SupportsPushdown() && !predicate->EvalBool(row)) continue;
    out.rows.push_back(std::move(row));
  }
  return out;
}

StatusOr<ExternalSource*> FederationEngine::Source(const std::string& name) const {
  auto it = sources_.find(name);
  if (it == sources_.end()) return Status::NotFound("no virtual table '" + name + "'");
  return it->second.get();
}

std::vector<std::string> FederationEngine::SourceNames() const {
  std::vector<std::string> names;
  for (const auto& [name, _] : sources_) names.push_back(name);
  return names;
}

}  // namespace poly
