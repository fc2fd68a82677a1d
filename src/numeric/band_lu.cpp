#include "src/numeric/band_lu.hpp"

#include <algorithm>

namespace emi::num {

namespace {

using Graph = std::vector<std::vector<std::size_t>>;

// Breadth-first level structure from `root`: returns the nodes of the last
// level and sets `depth` to the number of levels.
std::vector<std::size_t> last_level(const Graph& g, std::size_t root, std::size_t& depth) {
  std::vector<std::size_t> level(g.size(), 0);
  std::vector<char> seen(g.size(), 0);
  std::vector<std::size_t> queue{root};
  seen[root] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::size_t v = queue[head];
    for (const std::size_t u : g[v]) {
      if (seen[u]) continue;
      seen[u] = 1;
      level[u] = level[v] + 1;
      queue.push_back(u);
    }
  }
  depth = level[queue.back()] + 1;
  std::vector<std::size_t> last;
  for (const std::size_t v : queue) {
    if (level[v] + 1 == depth) last.push_back(v);
  }
  return last;
}

}  // namespace

BandOrdering rcm_ordering(std::size_t n,
                          std::span<const std::pair<std::size_t, std::size_t>> entries) {
  Graph g(n);
  for (const auto& [r, c] : entries) {
    if (r == c) continue;
    g[r].push_back(c);
    g[c].push_back(r);
  }
  for (std::vector<std::size_t>& adj : g) {
    std::sort(adj.begin(), adj.end());
    adj.erase(std::unique(adj.begin(), adj.end()), adj.end());
  }
  const auto before = [&](std::size_t a, std::size_t b) {
    if (g[a].size() != g[b].size()) return g[a].size() < g[b].size();
    return a < b;
  };

  BandOrdering out;
  out.order.reserve(n);
  std::vector<char> placed(n, 0);
  while (out.order.size() < n) {
    // Lowest-degree unplaced node, then George-Liu: hop to the lowest-degree
    // node of the last BFS level while that deepens the level structure.
    std::size_t root = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (!placed[v] && (root == n || before(v, root))) root = v;
    }
    std::size_t depth = 0;
    std::vector<std::size_t> last = last_level(g, root, depth);
    for (;;) {
      const std::size_t cand = *std::min_element(last.begin(), last.end(), before);
      std::size_t cand_depth = 0;
      std::vector<std::size_t> cand_last = last_level(g, cand, cand_depth);
      if (cand_depth <= depth) break;
      root = cand;
      depth = cand_depth;
      last = std::move(cand_last);
    }
    // Cuthill-McKee: breadth first, each node's new neighbours by degree.
    std::size_t head = out.order.size();
    out.order.push_back(root);
    placed[root] = 1;
    for (; head < out.order.size(); ++head) {
      const std::size_t first = out.order.size();
      for (const std::size_t u : g[out.order[head]]) {
        if (placed[u]) continue;
        placed[u] = 1;
        out.order.push_back(u);
      }
      std::sort(out.order.begin() + static_cast<std::ptrdiff_t>(first), out.order.end(),
                before);
    }
  }
  std::reverse(out.order.begin(), out.order.end());
  out.pos.resize(n);
  for (std::size_t k = 0; k < n; ++k) out.pos[out.order[k]] = k;
  for (const auto& [r, c] : entries) {
    const std::size_t i = out.pos[r];
    const std::size_t j = out.pos[c];
    if (i > j) out.kl = std::max(out.kl, i - j);
    if (j > i) out.ku = std::max(out.ku, j - i);
  }
  return out;
}

}  // namespace emi::num
