#include "engines/graph/hierarchy.h"

#include <algorithm>

namespace poly {

StatusOr<HierarchyView> HierarchyView::Build(const ColumnTable& table,
                                             const ReadView& view,
                                             const std::string& id_column,
                                             const std::string& parent_column) {
  POLY_ASSIGN_OR_RETURN(size_t id_col, table.schema().IndexOf(id_column));
  POLY_ASSIGN_OR_RETURN(size_t parent_col, table.schema().IndexOf(parent_column));

  HierarchyView h;
  std::vector<int64_t> parents_raw;
  Status status = Status::OK();
  ColumnTable::ReadGuard guard(&table);
  guard.ScanVisible(view, [&](uint64_t r) {
    if (!status.ok()) return;
    Value idv = guard.GetValue(r, id_col);
    if (idv.is_null()) return;
    int64_t id = idv.AsInt();
    if (h.index_.count(id)) {
      status = Status::InvalidArgument("duplicate hierarchy id " + std::to_string(id));
      return;
    }
    h.index_.emplace(id, static_cast<int>(h.ids_.size()));
    h.ids_.push_back(id);
    Value pv = guard.GetValue(r, parent_col);
    parents_raw.push_back(pv.is_null() ? id : pv.AsInt());  // self/null = root
  });
  POLY_RETURN_IF_ERROR(status);

  size_t n = h.ids_.size();
  h.nodes_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    int64_t parent_id = parents_raw[i];
    if (parent_id == h.ids_[i] || !h.index_.count(parent_id)) {
      h.nodes_[i].parent = -1;
      h.roots_.push_back(h.ids_[i]);
    } else {
      int p = h.index_[parent_id];
      h.nodes_[i].parent = p;
      h.nodes_[p].children.push_back(static_cast<int>(i));
    }
  }

  // Iterative DFS assigning (pre, post) labels and depth.
  int64_t clock = 0;
  std::vector<int> visited(n, 0);
  h.preorder_.resize(n, -1);
  for (int64_t root_id : h.roots_) {
    int root = h.index_[root_id];
    std::vector<std::pair<int, size_t>> stack = {{root, 0}};
    h.nodes_[root].pre = clock;
    h.preorder_[clock++] = root;
    visited[root] = 1;
    h.nodes_[root].depth = 0;
    while (!stack.empty()) {
      auto& [u, child_pos] = stack.back();
      if (child_pos < h.nodes_[u].children.size()) {
        int v = h.nodes_[u].children[child_pos++];
        if (visited[v]) return Status::Corruption("cycle in hierarchy");
        visited[v] = 1;
        h.nodes_[v].pre = clock;
        h.preorder_[clock++] = v;
        h.nodes_[v].depth = h.nodes_[u].depth + 1;
        stack.push_back({v, 0});
      } else {
        h.nodes_[u].post = clock;
        h.nodes_[u].subtree_size = h.nodes_[u].post - h.nodes_[u].pre - 1;
        stack.pop_back();
      }
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (!visited[i]) return Status::Corruption("cycle in hierarchy (unreachable nodes)");
  }
  return h;
}

bool HierarchyView::IsDescendant(int64_t descendant, int64_t ancestor) const {
  auto d = index_.find(descendant);
  auto a = index_.find(ancestor);
  if (d == index_.end() || a == index_.end() || descendant == ancestor) return false;
  const Node& dn = nodes_[d->second];
  const Node& an = nodes_[a->second];
  return dn.pre > an.pre && dn.post <= an.post;
}

StatusOr<int64_t> HierarchyView::CountDescendants(int64_t id) const {
  auto it = index_.find(id);
  if (it == index_.end()) return Status::NotFound("no node " + std::to_string(id));
  return nodes_[it->second].subtree_size;
}

std::vector<int64_t> HierarchyView::Children(int64_t id) const {
  auto it = index_.find(id);
  if (it == index_.end()) return {};
  std::vector<int64_t> out;
  for (int c : nodes_[it->second].children) out.push_back(ids_[c]);
  return out;
}

std::vector<int64_t> HierarchyView::Siblings(int64_t id) const {
  auto it = index_.find(id);
  if (it == index_.end()) return {};
  int parent = nodes_[it->second].parent;
  std::vector<int64_t> out;
  if (parent < 0) {
    for (int64_t r : roots_) {
      if (r != id) out.push_back(r);
    }
    return out;
  }
  for (int c : nodes_[parent].children) {
    if (ids_[c] != id) out.push_back(ids_[c]);
  }
  return out;
}

StatusOr<int64_t> HierarchyView::Depth(int64_t id) const {
  auto it = index_.find(id);
  if (it == index_.end()) return Status::NotFound("no node " + std::to_string(id));
  return nodes_[it->second].depth;
}

std::vector<int64_t> HierarchyView::PathToRoot(int64_t id) const {
  auto it = index_.find(id);
  if (it == index_.end()) return {};
  std::vector<int64_t> path;
  for (int u = it->second; u >= 0; u = nodes_[u].parent) path.push_back(ids_[u]);
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<int64_t> HierarchyView::Descendants(int64_t id) const {
  auto it = index_.find(id);
  if (it == index_.end()) return {};
  const Node& n = nodes_[it->second];
  std::vector<int64_t> out;
  out.reserve(n.subtree_size);
  // Descendants occupy the contiguous preorder range (pre, post).
  for (int64_t p = n.pre + 1; p < n.post; ++p) out.push_back(ids_[preorder_[p]]);
  return out;
}

StatusOr<std::pair<int64_t, int64_t>> HierarchyView::Interval(int64_t id) const {
  auto it = index_.find(id);
  if (it == index_.end()) return Status::NotFound("no node " + std::to_string(id));
  return std::make_pair(nodes_[it->second].pre, nodes_[it->second].post);
}

Status VersionedHierarchy::Snapshot(int64_t version, const ColumnTable& table,
                                    const ReadView& view, const std::string& id_column,
                                    const std::string& parent_column) {
  POLY_ASSIGN_OR_RETURN(HierarchyView h,
                        HierarchyView::Build(table, view, id_column, parent_column));
  versions_.insert_or_assign(version, std::move(h));
  return Status::OK();
}

StatusOr<const HierarchyView*> VersionedHierarchy::Version(int64_t version) const {
  auto it = versions_.find(version);
  if (it == versions_.end()) {
    return Status::NotFound("no hierarchy version " + std::to_string(version));
  }
  return &it->second;
}

std::vector<int64_t> VersionedHierarchy::Versions() const {
  std::vector<int64_t> out;
  for (const auto& [v, _] : versions_) out.push_back(v);
  std::sort(out.begin(), out.end());
  return out;
}

StatusOr<std::vector<int64_t>> VersionedHierarchy::ChangedNodes(
    int64_t from_version, int64_t to_version) const {
  POLY_ASSIGN_OR_RETURN(const HierarchyView* from, Version(from_version));
  POLY_ASSIGN_OR_RETURN(const HierarchyView* to, Version(to_version));
  std::vector<int64_t> changed;
  // A node changed if its path-to-root parent differs or it appears/vanishes.
  auto parent_of = [](const HierarchyView& h, int64_t id) -> int64_t {
    auto path = h.PathToRoot(id);
    return path.size() >= 2 ? path[path.size() - 2] : -1;
  };
  // Union of ids via both views' descendants-of-roots plus roots.
  std::vector<int64_t> all;
  for (const HierarchyView* h : {from, to}) {
    for (int64_t r : h->Roots()) {
      all.push_back(r);
      auto d = h->Descendants(r);
      all.insert(all.end(), d.begin(), d.end());
    }
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  for (int64_t id : all) {
    bool in_from = from->Contains(id);
    bool in_to = to->Contains(id);
    if (in_from != in_to || parent_of(*from, id) != parent_of(*to, id)) {
      changed.push_back(id);
    }
  }
  return changed;
}

}  // namespace poly
