#include "docstore/doc_query.h"

#include <cctype>

namespace poly {

StatusOr<DocPath> DocPath::Parse(const std::string& text) {
  DocPath path;
  size_t i = 0;
  if (i < text.size() && text[i] == '$') ++i;
  while (i < text.size()) {
    if (text[i] == '.') {
      ++i;
      size_t start = i;
      while (i < text.size() && text[i] != '.' && text[i] != '[') ++i;
      if (start == i) return Status::InvalidArgument("empty field in path " + text);
      Segment s;
      s.kind = Segment::Kind::kField;
      s.field = text.substr(start, i - start);
      path.segments_.push_back(std::move(s));
    } else if (text[i] == '[') {
      ++i;
      if (i < text.size() && text[i] == '*') {
        ++i;
        if (i >= text.size() || text[i] != ']') {
          return Status::InvalidArgument("expected ']' in path " + text);
        }
        ++i;
        Segment s;
        s.kind = Segment::Kind::kWildcard;
        path.segments_.push_back(s);
      } else {
        size_t start = i;
        while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]))) ++i;
        if (start == i || i >= text.size() || text[i] != ']') {
          return Status::InvalidArgument("bad index in path " + text);
        }
        Segment s;
        s.kind = Segment::Kind::kIndex;
        s.index = std::stoul(text.substr(start, i - start));
        ++i;
        path.segments_.push_back(s);
      }
    } else {
      return Status::InvalidArgument("unexpected '" + std::string(1, text[i]) +
                                     "' in path " + text);
    }
  }
  return path;
}

std::vector<const JsonValue*> DocPath::Evaluate(const JsonValue& root) const {
  std::vector<const JsonValue*> current = {&root};
  for (const Segment& seg : segments_) {
    std::vector<const JsonValue*> next;
    for (const JsonValue* v : current) {
      switch (seg.kind) {
        case Segment::Kind::kField: {
          const JsonValue* f = v->Field(seg.field);
          if (f) next.push_back(f);
          break;
        }
        case Segment::Kind::kIndex: {
          const JsonValue* item = v->Item(seg.index);
          if (item) next.push_back(item);
          break;
        }
        case Segment::Kind::kWildcard: {
          if (v->kind() == JsonValue::Kind::kArray) {
            for (const JsonValue& item : v->AsArray()) next.push_back(&item);
          }
          break;
        }
      }
    }
    current = std::move(next);
    if (current.empty()) break;
  }
  return current;
}

const JsonValue* DocPath::First(const JsonValue& root) const {
  auto matches = Evaluate(root);
  return matches.empty() ? nullptr : matches[0];
}

std::string DocPath::ToString() const {
  std::string out = "$";
  for (const Segment& s : segments_) {
    switch (s.kind) {
      case Segment::Kind::kField: out += "." + s.field; break;
      case Segment::Kind::kIndex: out += "[" + std::to_string(s.index) + "]"; break;
      case Segment::Kind::kWildcard: out += "[*]"; break;
    }
  }
  return out;
}

bool JsonCompare(CmpOp op, const JsonValue& lhs, const JsonValue& rhs) {
  using Kind = JsonValue::Kind;
  if (lhs.kind() != rhs.kind()) {
    if (op == CmpOp::kNe) return true;
    return false;
  }
  int cmp = 0;
  switch (lhs.kind()) {
    case Kind::kNumber:
      cmp = lhs.AsNumber() < rhs.AsNumber() ? -1 : (lhs.AsNumber() > rhs.AsNumber() ? 1 : 0);
      break;
    case Kind::kString:
      cmp = lhs.AsString().compare(rhs.AsString());
      cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
      break;
    case Kind::kBool:
      cmp = static_cast<int>(lhs.AsBool()) - static_cast<int>(rhs.AsBool());
      break;
    default:
      // Arrays/objects/null: only equality semantics.
      cmp = lhs == rhs ? 0 : 2;
  }
  switch (op) {
    case CmpOp::kEq: return cmp == 0;
    case CmpOp::kNe: return cmp != 0;
    case CmpOp::kLt: return cmp == -1;
    case CmpOp::kLe: return cmp == -1 || cmp == 0;
    case CmpOp::kGt: return cmp == 1;
    case CmpOp::kGe: return cmp == 1 || cmp == 0;
  }
  return false;
}

StatusOr<DocQuery> DocQuery::Create(const ColumnTable* table, const std::string& column) {
  POLY_ASSIGN_OR_RETURN(size_t col, table->schema().IndexOf(column));
  if (table->schema().column(col).type != DataType::kDocument) {
    return Status::InvalidArgument("column " + column + " is not DOCUMENT");
  }
  return DocQuery(table, col);
}

StatusOr<std::vector<uint64_t>> DocQuery::SelectWhere(const ReadView& view,
                                                      const std::string& path, CmpOp op,
                                                      const JsonValue& literal) const {
  POLY_ASSIGN_OR_RETURN(DocPath parsed, DocPath::Parse(path));
  std::vector<uint64_t> rows;
  Status status = Status::OK();
  ColumnTable::ReadGuard g(table_);
  g.ScanVisible(view, [&](uint64_t r) {
    if (!status.ok()) return;
    Value cell = g.GetValue(r, column_);
    if (cell.is_null()) return;
    auto doc = ParseJson(cell.AsString());
    if (!doc.ok()) {
      status = doc.status();
      return;
    }
    for (const JsonValue* v : parsed.Evaluate(*doc)) {
      if (JsonCompare(op, *v, literal)) {
        rows.push_back(r);
        break;
      }
    }
  });
  POLY_RETURN_IF_ERROR(status);
  return rows;
}

StatusOr<std::vector<uint64_t>> DocQuery::SelectExists(const ReadView& view,
                                                       const std::string& path) const {
  POLY_ASSIGN_OR_RETURN(DocPath parsed, DocPath::Parse(path));
  std::vector<uint64_t> rows;
  Status status = Status::OK();
  ColumnTable::ReadGuard g(table_);
  g.ScanVisible(view, [&](uint64_t r) {
    if (!status.ok()) return;
    Value cell = g.GetValue(r, column_);
    if (cell.is_null()) return;
    auto doc = ParseJson(cell.AsString());
    if (!doc.ok()) {
      status = doc.status();
      return;
    }
    if (!parsed.Evaluate(*doc).empty()) rows.push_back(r);
  });
  POLY_RETURN_IF_ERROR(status);
  return rows;
}

StatusOr<std::vector<std::pair<uint64_t, JsonValue>>> DocQuery::Extract(
    const ReadView& view, const std::string& path) const {
  POLY_ASSIGN_OR_RETURN(DocPath parsed, DocPath::Parse(path));
  std::vector<std::pair<uint64_t, JsonValue>> out;
  Status status = Status::OK();
  ColumnTable::ReadGuard g(table_);
  g.ScanVisible(view, [&](uint64_t r) {
    if (!status.ok()) return;
    Value cell = g.GetValue(r, column_);
    if (cell.is_null()) return;
    auto doc = ParseJson(cell.AsString());
    if (!doc.ok()) {
      status = doc.status();
      return;
    }
    const JsonValue* v = parsed.First(*doc);
    if (v) out.emplace_back(r, *v);
  });
  POLY_RETURN_IF_ERROR(status);
  return out;
}

}  // namespace poly
