#include "span_trace.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

#include "bench_util.h"

namespace polybench {

namespace {

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<std::vector<SpanRecord>>> g_buffers;
std::atomic<uint64_t> g_next_id{1};
thread_local std::vector<SpanRecord>* t_buffer = nullptr;
thread_local Span* t_current = nullptr;

std::vector<SpanRecord>* Buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<std::vector<SpanRecord>>());
    t_buffer = g_buffers.back().get();
  }
  return t_buffer;
}

void Graft(const poly::OperatorSpan& op, uint64_t start, uint64_t stmt,
           uint64_t parent, std::vector<SpanRecord>* out) {
  SpanRecord rec;
  rec.stmt = stmt;
  rec.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec.parent = parent;
  rec.name = "op." + op.label;
  rec.start_ns = start;
  rec.end_ns = start + op.wall_nanos;
  rec.attrs = {{"rows_in", static_cast<double>(op.rows_in)},
               {"rows_out", static_cast<double>(op.rows_out)}};
  uint64_t child_start = start;
  for (const poly::OperatorSpan& child : op.children) {
    Graft(child, child_start, stmt, rec.id, out);
    child_start += child.wall_nanos;
  }
  out->push_back(std::move(rec));
}

std::string Escaped(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Span::Span(std::string name) : enclosing_(t_current) {
  rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.name = std::move(name);
  if (enclosing_ != nullptr) {
    rec_.stmt = enclosing_->rec_.stmt;
    rec_.parent = enclosing_->rec_.id;
  } else {
    rec_.stmt = rec_.id;
  }
  t_current = this;
  rec_.start_ns = NowNs();
}

Span::~Span() {
  rec_.end_ns = NowNs();
  t_current = enclosing_;
  Buffer()->push_back(std::move(rec_));
}

void Span::AddOperatorTree(const poly::OperatorSpan& root, uint64_t start_ns) {
  Graft(root, start_ns, rec_.stmt, rec_.id, Buffer());
}

void JsonField(std::string* out, const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  if (!out->empty()) *out += ", ";
  *out += "\"" + Escaped(key) + "\": " + buf;
}

void JsonField(std::string* out, const std::string& key, const std::string& value) {
  if (!out->empty()) *out += ", ";
  *out += "\"" + Escaped(key) + "\": \"" + Escaped(value) + "\"";
}

bool WriteSpans(const std::string& path, const std::string& header,
                const std::string& footer) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header.c_str());
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    for (const SpanRecord& r : *buffer) {
      std::string attrs;
      for (const auto& [key, value] : r.attrs) JsonField(&attrs, key, value);
      std::string line;
      JsonField(&line, "type", std::string("span"));
      JsonField(&line, "stmt", static_cast<double>(r.stmt));
      JsonField(&line, "id", static_cast<double>(r.id));
      JsonField(&line, "parent", static_cast<double>(r.parent));
      JsonField(&line, "name", r.name);
      JsonField(&line, "start", static_cast<double>(r.start_ns));
      JsonField(&line, "end", static_cast<double>(r.end_ns));
      std::fprintf(f, "{%s, \"attrs\": {%s}}\n", line.c_str(), attrs.c_str());
    }
  }
  std::fprintf(f, "%s\n", footer.c_str());
  return std::fclose(f) == 0;
}

}  // namespace polybench
