#ifndef POLYBENCH_SPAN_TRACE_H_
#define POLYBENCH_SPAN_TRACE_H_

// Span recorder of the traced run. Spans are recorded by the benchmark
// around each public call into a layer (the library itself is not
// instrumented); they stay in per-thread memory buffers and are written to
// a JSON-lines file once, after the run. perfbench/summarize.py reads it.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "query/trace.h"

namespace polybench {

struct SpanRecord {
  uint64_t stmt = 0;    ///< statement (root span) id shared by the whole tree
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root of its statement
  std::string name;     ///< "<layer>.<call>", e.g. "query.parse", "op.Scan(orders)"
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  std::vector<std::pair<std::string, double>> attrs;  ///< counts at this boundary
};

/// RAII span on the calling thread. Nested under the innermost open Span of
/// the same thread; a Span with no enclosing span opens a new statement.
class Span {
 public:
  explicit Span(std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void Attr(const std::string& key, double value) { rec_.attrs.emplace_back(key, value); }
  uint64_t start_ns() const { return rec_.start_ns; }

  /// Grafts an executor span tree (poly::OperatorSpan) under this span as
  /// "op.<label>" spans. The executor records durations, not start times,
  /// and runs children inside their parent one after another, so each
  /// child is laid out back to back from its parent's start; a parent's
  /// self time is then exactly its wall time minus its children's.
  void AddOperatorTree(const poly::OperatorSpan& root, uint64_t start_ns);

 private:
  SpanRecord rec_;
  Span* enclosing_;
};

/// Writes every recorded span as one JSON line, preceded by `header` and
/// followed by `footer` (each a complete JSON object line). Call once, after
/// all threads that recorded spans have been joined. Returns false on IO
/// error.
bool WriteSpans(const std::string& path, const std::string& header,
                const std::string& footer);

/// Appends `"key": value` to a JSON object body being built in `out`.
void JsonField(std::string* out, const std::string& key, double value);
void JsonField(std::string* out, const std::string& key, const std::string& value);

}  // namespace polybench

#endif  // POLYBENCH_SPAN_TRACE_H_
