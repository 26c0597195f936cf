#include "engines/graph/graph_view.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <queue>

namespace poly {

StatusOr<GraphView> GraphView::Build(const ColumnTable& edges, const ReadView& view,
                                     const std::string& src_column,
                                     const std::string& dst_column,
                                     const std::string& weight_column, bool directed) {
  POLY_ASSIGN_OR_RETURN(size_t src_col, edges.schema().IndexOf(src_column));
  POLY_ASSIGN_OR_RETURN(size_t dst_col, edges.schema().IndexOf(dst_column));
  int weight_col = -1;
  if (!weight_column.empty()) {
    POLY_ASSIGN_OR_RETURN(size_t w, edges.schema().IndexOf(weight_column));
    weight_col = static_cast<int>(w);
  }

  struct RawEdge {
    int64_t src, dst;
    double weight;
  };
  std::vector<RawEdge> raw;
  ColumnTable::ReadGuard guard(&edges);
  guard.ScanVisible(view, [&](uint64_t r) {
    Value s = guard.GetValue(r, src_col);
    Value d = guard.GetValue(r, dst_col);
    if (s.is_null() || d.is_null()) return;
    double w = 1.0;
    if (weight_col >= 0) {
      Value wv = guard.GetValue(r, static_cast<size_t>(weight_col));
      if (!wv.is_null()) w = wv.NumericValue();
    }
    raw.push_back({s.AsInt(), d.AsInt(), w});
    if (!directed) raw.push_back({d.AsInt(), s.AsInt(), w});
  });

  GraphView g;
  for (const RawEdge& e : raw) {
    for (int64_t id : {e.src, e.dst}) {
      if (!g.index_.count(id)) {
        g.index_.emplace(id, static_cast<int>(g.node_ids_.size()));
        g.node_ids_.push_back(id);
      }
    }
  }
  // CSR construction: count, prefix-sum, fill.
  size_t n = g.node_ids_.size();
  std::vector<size_t> counts(n, 0);
  for (const RawEdge& e : raw) ++counts[g.index_[e.src]];
  g.adj_offsets_.assign(n + 1, 0);
  for (size_t i = 0; i < n; ++i) g.adj_offsets_[i + 1] = g.adj_offsets_[i] + counts[i];
  g.adj_dst_.resize(raw.size());
  g.adj_weight_.resize(raw.size());
  std::vector<size_t> cursor(g.adj_offsets_.begin(), g.adj_offsets_.end() - 1);
  for (const RawEdge& e : raw) {
    size_t pos = cursor[g.index_[e.src]]++;
    g.adj_dst_[pos] = g.index_[e.dst];
    g.adj_weight_[pos] = e.weight;
  }
  return g;
}

int GraphView::IndexOf(int64_t node_id) const {
  auto it = index_.find(node_id);
  return it == index_.end() ? -1 : it->second;
}

std::vector<int64_t> GraphView::Neighbors(int64_t node_id) const {
  int idx = IndexOf(node_id);
  if (idx < 0) return {};
  std::vector<int64_t> out;
  for (size_t p = adj_offsets_[idx]; p < adj_offsets_[idx + 1]; ++p) {
    out.push_back(node_ids_[adj_dst_[p]]);
  }
  return out;
}

size_t GraphView::OutDegree(int64_t node_id) const {
  int idx = IndexOf(node_id);
  if (idx < 0) return 0;
  return adj_offsets_[idx + 1] - adj_offsets_[idx];
}

int64_t GraphView::BfsDistance(int64_t from, int64_t to) const {
  int s = IndexOf(from), t = IndexOf(to);
  if (s < 0 || t < 0) return -1;
  if (s == t) return 0;
  std::vector<int64_t> dist(node_ids_.size(), -1);
  dist[s] = 0;
  std::deque<int> queue = {s};
  while (!queue.empty()) {
    int u = queue.front();
    queue.pop_front();
    for (size_t p = adj_offsets_[u]; p < adj_offsets_[u + 1]; ++p) {
      int v = adj_dst_[p];
      if (dist[v] >= 0) continue;
      dist[v] = dist[u] + 1;
      if (v == t) return dist[v];
      queue.push_back(v);
    }
  }
  return -1;
}

namespace {
struct PqEntry {
  double dist;
  int node;
  bool operator>(const PqEntry& o) const { return dist > o.dist; }
};
}  // namespace

std::vector<int64_t> GraphView::ShortestPath(int64_t from, int64_t to,
                                             double* cost) const {
  if (cost) *cost = kUnreachable;
  int s = IndexOf(from), t = IndexOf(to);
  if (s < 0 || t < 0) return {};
  size_t n = node_ids_.size();
  std::vector<double> dist(n, kUnreachable);
  std::vector<int> prev(n, -1);
  std::priority_queue<PqEntry, std::vector<PqEntry>, std::greater<PqEntry>> pq;
  dist[s] = 0;
  pq.push({0, s});
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    if (u == t) break;
    for (size_t p = adj_offsets_[u]; p < adj_offsets_[u + 1]; ++p) {
      int v = adj_dst_[p];
      double nd = d + adj_weight_[p];
      if (nd < dist[v]) {
        dist[v] = nd;
        prev[v] = u;
        pq.push({nd, v});
      }
    }
  }
  if (dist[t] == kUnreachable) return {};
  if (cost) *cost = dist[t];
  std::vector<int64_t> path;
  for (int u = t; u != -1; u = prev[u]) path.push_back(node_ids_[u]);
  std::reverse(path.begin(), path.end());
  return path;
}

std::unordered_map<int64_t, double> GraphView::DistancesFrom(int64_t from) const {
  std::unordered_map<int64_t, double> out;
  int s = IndexOf(from);
  if (s < 0) return out;
  size_t n = node_ids_.size();
  std::vector<double> dist(n, kUnreachable);
  std::priority_queue<PqEntry, std::vector<PqEntry>, std::greater<PqEntry>> pq;
  dist[s] = 0;
  pq.push({0, s});
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    for (size_t p = adj_offsets_[u]; p < adj_offsets_[u + 1]; ++p) {
      int v = adj_dst_[p];
      double nd = d + adj_weight_[p];
      if (nd < dist[v]) {
        dist[v] = nd;
        pq.push({nd, v});
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (dist[i] != kUnreachable) out.emplace(node_ids_[i], dist[i]);
  }
  return out;
}

std::vector<int64_t> GraphView::NodesWithinCost(int64_t from, double max_cost) const {
  std::vector<int64_t> out;
  for (const auto& [node, d] : DistancesFrom(from)) {
    if (d <= max_cost) out.push_back(node);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::unordered_map<int64_t, double> GraphView::PageRank(double damping, int iterations,
                                                        double tolerance) const {
  size_t n = node_ids_.size();
  std::unordered_map<int64_t, double> out;
  if (n == 0) return out;
  std::vector<double> rank(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  for (int it = 0; it < iterations; ++it) {
    double dangling = 0;
    for (size_t u = 0; u < n; ++u) {
      if (adj_offsets_[u + 1] == adj_offsets_[u]) dangling += rank[u];
    }
    double base = (1.0 - damping) / static_cast<double>(n) +
                  damping * dangling / static_cast<double>(n);
    std::fill(next.begin(), next.end(), base);
    for (size_t u = 0; u < n; ++u) {
      size_t degree = adj_offsets_[u + 1] - adj_offsets_[u];
      if (degree == 0) continue;
      double share = damping * rank[u] / static_cast<double>(degree);
      for (size_t p = adj_offsets_[u]; p < adj_offsets_[u + 1]; ++p) {
        next[adj_dst_[p]] += share;
      }
    }
    double delta = 0;
    for (size_t u = 0; u < n; ++u) delta += std::abs(next[u] - rank[u]);
    rank.swap(next);
    if (delta < tolerance) break;
  }
  for (size_t u = 0; u < n; ++u) out.emplace(node_ids_[u], rank[u]);
  return out;
}

std::unordered_map<int64_t, int> GraphView::ConnectedComponents() const {
  size_t n = node_ids_.size();
  // Undirected closure via reverse adjacency.
  std::vector<std::vector<int>> reverse_adj(n);
  for (size_t u = 0; u < n; ++u) {
    for (size_t p = adj_offsets_[u]; p < adj_offsets_[u + 1]; ++p) {
      reverse_adj[adj_dst_[p]].push_back(static_cast<int>(u));
    }
  }
  std::vector<int> comp(n, -1);
  int next_comp = 0;
  for (size_t start = 0; start < n; ++start) {
    if (comp[start] >= 0) continue;
    std::deque<int> queue = {static_cast<int>(start)};
    comp[start] = next_comp;
    while (!queue.empty()) {
      int u = queue.front();
      queue.pop_front();
      auto visit = [&](int v) {
        if (comp[v] < 0) {
          comp[v] = next_comp;
          queue.push_back(v);
        }
      };
      for (size_t p = adj_offsets_[u]; p < adj_offsets_[u + 1]; ++p) visit(adj_dst_[p]);
      for (int v : reverse_adj[u]) visit(v);
    }
    ++next_comp;
  }
  std::unordered_map<int64_t, int> out;
  for (size_t i = 0; i < n; ++i) out.emplace(node_ids_[i], comp[i]);
  return out;
}

}  // namespace poly
