#include "sparse/rcm.hpp"

#include <algorithm>
#include <queue>

namespace pmtbr::sparse {

namespace {

// Adjacency of the symmetrized pattern, excluding the diagonal.
std::vector<std::vector<index>> build_adjacency(const CsrD& a) {
  const index n = a.rows();
  std::vector<std::vector<index>> adj(static_cast<std::size_t>(n));
  for (index i = 0; i < n; ++i) {
    for (index k = a.row_ptr()[static_cast<std::size_t>(i)];
         k < a.row_ptr()[static_cast<std::size_t>(i) + 1]; ++k) {
      const index j = a.col_idx()[static_cast<std::size_t>(k)];
      if (i == j) continue;
      adj[static_cast<std::size_t>(i)].push_back(j);
      adj[static_cast<std::size_t>(j)].push_back(i);
    }
  }
  for (auto& nb : adj) {
    std::sort(nb.begin(), nb.end());
    nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
  }
  return adj;
}

}  // namespace

std::vector<index> rcm_ordering(const CsrD& a) {
  PMTBR_REQUIRE(a.rows() == a.cols(), "rcm requires a square matrix");
  const index n = a.rows();
  const auto adj = build_adjacency(a);

  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  std::vector<index> order;
  order.reserve(static_cast<std::size_t>(n));

  auto degree = [&](index v) { return static_cast<index>(adj[static_cast<std::size_t>(v)].size()); };

  for (index start_scan = 0; static_cast<index>(order.size()) < n; ++start_scan) {
    // Find an unvisited vertex of minimum degree as the component root.
    index root = -1;
    for (index v = 0; v < n; ++v) {
      if (visited[static_cast<std::size_t>(v)]) continue;
      if (root < 0 || degree(v) < degree(root)) root = v;
    }
    PMTBR_ENSURE(root >= 0, "rcm lost track of unvisited vertices");

    // BFS with neighbors sorted by increasing degree (Cuthill–McKee).
    std::queue<index> q;
    q.push(root);
    visited[static_cast<std::size_t>(root)] = 1;
    while (!q.empty()) {
      const index v = q.front();
      q.pop();
      order.push_back(v);
      std::vector<index> nb;
      for (index w : adj[static_cast<std::size_t>(v)])
        if (!visited[static_cast<std::size_t>(w)]) nb.push_back(w);
      std::sort(nb.begin(), nb.end(), [&](index x, index y) { return degree(x) < degree(y); });
      for (index w : nb) {
        visited[static_cast<std::size_t>(w)] = 1;
        q.push(w);
      }
    }
  }

  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<index> invert_permutation(const std::vector<index>& p) {
  const index n = static_cast<index>(p.size());
  std::vector<index> inv(p.size(), -1);
  for (std::size_t k = 0; k < p.size(); ++k) {
    const index v = p[k];
    PMTBR_REQUIRE(0 <= v && v < n && inv[static_cast<std::size_t>(v)] < 0,
                  "not a permutation: every index in [0, n) must appear exactly once");
    inv[static_cast<std::size_t>(v)] = static_cast<index>(k);
  }
  return inv;
}

template <typename T>
Csr<T> permute_symmetric(const Csr<T>& a, const std::vector<index>& perm) {
  PMTBR_REQUIRE(static_cast<index>(perm.size()) == a.rows(), "perm length mismatch");
  const auto inv = invert_permutation(perm);
  Triplets<T> t(a.rows(), a.cols());
  for (index i = 0; i < a.rows(); ++i)
    for (index k = a.row_ptr()[static_cast<std::size_t>(i)];
         k < a.row_ptr()[static_cast<std::size_t>(i) + 1]; ++k)
      t.add(inv[static_cast<std::size_t>(i)],
            inv[static_cast<std::size_t>(a.col_idx()[static_cast<std::size_t>(k)])],
            a.values()[static_cast<std::size_t>(k)]);
  return Csr<T>(t);
}

template Csr<double> permute_symmetric(const Csr<double>&, const std::vector<index>&);
template Csr<cd> permute_symmetric(const Csr<cd>&, const std::vector<index>&);

}  // namespace pmtbr::sparse
