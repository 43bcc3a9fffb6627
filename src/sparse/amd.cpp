#include "sparse/amd.hpp"

#include <algorithm>
#include <cmath>

namespace pmtbr::sparse {

namespace {

// A vector addressed by the library's signed index type.
class IndexArray {
 public:
  IndexArray(index n, index fill) : v_(static_cast<std::size_t>(n), fill) {}

  index& operator[](index i) {
    PMTBR_DEBUG_ASSERT(0 <= i && i < size(), "amd index out of range");
    return v_[static_cast<std::size_t>(i)];
  }
  index size() const { return static_cast<index>(v_.size()); }
  void resize(index n) { v_.resize(static_cast<std::size_t>(n)); }

 private:
  std::vector<index> v_;
};

// Minimum-degree elimination on the quotient graph. Node i is, at any time,
// one of:
//  - a principal variable (nv_[i] > 0, the size of its supervariable). It
//    sits in the degree list of deg_[i], an upper bound on its external
//    degree, and its list in iw_ holds elen_[i] adjacent elements followed
//    by its adjacent variables;
//  - an element, a former pivot standing for the clique it created. Its
//    list holds its variables and deg_[i] bounds their total size;
//  - dead: an absorbed element, a variable merged into a supervariable or
//    eliminated, or a dense row (pe_[i] = -1 where it owned a list).
// Lists may keep ids of nodes that died since they were written. Dead
// variables and dense rows read nv_ == 0, dead elements w_ == 0, and every
// rewrite of a list prunes them. During a pivot step nv_ < 0 marks the
// variables of the new element Lme.
class Amd {
 public:
  explicit Amd(const CsrD& a);
  std::vector<index> run();

 private:
  void degree_insert(index i, index d);
  void degree_remove(index i);
  void reserve_list(index need);
  void compact();
  void emit(index i);

  index n_;
  IndexArray iw_{0, 0};  // all lists, back to back; [pfree_, end) is free
  index pfree_ = 0;
  IndexArray pe_, len_, elen_, nv_, deg_;
  // Element workspace: 0 for a dead element; in a pivot step, mark + |Le \ Lme|
  // for each element e adjacent to the new element's variables.
  IndexArray w_;
  IndexArray head_, next_, prev_;    // degree lists
  IndexArray hhead_, hnext_, hash_;  // supervariable hash buckets
  // Members of each supervariable, as a list threaded through its principal.
  IndexArray member_next_, member_tail_;
  std::vector<index> order_;
};

Amd::Amd(const CsrD& a)
    : n_(a.rows()),
      pe_(n_, -1),
      len_(n_, 0),
      elen_(n_, 0),
      nv_(n_, 1),
      deg_(n_, 0),
      w_(n_, 1),
      head_(n_, -1),
      next_(n_, -1),
      prev_(n_, -1),
      hhead_(n_, -1),
      hnext_(n_, -1),
      hash_(n_, 0),
      member_next_(n_, -1),
      member_tail_(n_, 0) {
  const auto& ptr = a.row_ptr();
  const auto& col = a.col_idx();

  // Pattern of A + A^T without the diagonal; an entry stored as both
  // (i, j) and (j, i) lands twice in `sym` and is dropped below.
  IndexArray start(n_ + 1, 0);
  for (index i = 0; i < n_; ++i)
    for (index k = ptr[static_cast<std::size_t>(i)]; k < ptr[static_cast<std::size_t>(i) + 1];
         ++k) {
      const index j = col[static_cast<std::size_t>(k)];
      if (j == i) continue;
      ++start[i + 1];
      ++start[j + 1];
    }
  for (index i = 0; i < n_; ++i) start[i + 1] += start[i];
  IndexArray sym(start[n_], 0);
  IndexArray fill(n_, 0);
  for (index i = 0; i < n_; ++i) fill[i] = start[i];
  for (index i = 0; i < n_; ++i)
    for (index k = ptr[static_cast<std::size_t>(i)]; k < ptr[static_cast<std::size_t>(i) + 1];
         ++k) {
      const index j = col[static_cast<std::size_t>(k)];
      if (j == i) continue;
      sym[fill[i]++] = j;
      sym[fill[j]++] = i;
    }
  IndexArray seen(n_, -1);
  for (index i = 0; i < n_; ++i)
    for (index p = start[i]; p < start[i + 1]; ++p) {
      const index j = sym[p];
      if (seen[j] == i) continue;
      seen[j] = i;
      ++len_[i];
    }

  // Transposing the symmetric pattern row by row writes every list in
  // ascending order, so the result depends on the pattern alone.
  index nnz = 0;
  for (index i = 0; i < n_; ++i) {
    pe_[i] = nnz;
    fill[i] = nnz;
    nnz += len_[i];
  }
  iw_.resize(nnz + nnz / 5 + 2 * n_);  // elbow room for new elements
  pfree_ = nnz;
  for (index i = 0; i < n_; ++i) seen[i] = -1;
  for (index r = 0; r < n_; ++r)
    for (index p = start[r]; p < start[r + 1]; ++p) {
      const index j = sym[p];
      if (seen[j] == r) continue;
      seen[j] = r;
      iw_[fill[j]++] = r;
    }
  for (index i = 0; i < n_; ++i) member_tail_[i] = i;
}

void Amd::degree_insert(index i, index d) {
  deg_[i] = d;
  prev_[i] = -1;
  next_[i] = head_[d];
  if (head_[d] >= 0) prev_[head_[d]] = i;
  head_[d] = i;
}

void Amd::degree_remove(index i) {
  if (next_[i] >= 0) prev_[next_[i]] = prev_[i];
  if (prev_[i] >= 0) {
    next_[prev_[i]] = next_[i];
  } else {
    head_[deg_[i]] = next_[i];
  }
}

// Ensures `need` free slots at pfree_, compacting first and growing only
// if that is not enough. Moves lists: callers re-read pe_ afterwards.
void Amd::reserve_list(index need) {
  if (pfree_ + need <= iw_.size()) return;
  compact();
  if (pfree_ + need > iw_.size()) iw_.resize(pfree_ + need + n_);
}

// Slides every live list to the front of iw_. The first entry of each list
// is parked in pe_ and replaced by the marker -(node + 1), which a forward
// sweep recognizes (list entries are node ids, never negative).
void Amd::compact() {
  for (index j = 0; j < n_; ++j) {
    if (pe_[j] < 0 || len_[j] == 0) continue;
    const index p = pe_[j];
    pe_[j] = iw_[p];
    iw_[p] = -j - 1;
  }
  index dst = 0;
  for (index src = 0; src < pfree_;) {
    const index marker = iw_[src++];
    if (marker >= 0) continue;
    const index j = -marker - 1;
    iw_[dst] = pe_[j];
    pe_[j] = dst++;
    for (index t = 1; t < len_[j]; ++t) iw_[dst++] = iw_[src++];
  }
  pfree_ = dst;
}

void Amd::emit(index i) {
  for (index v = i; v >= 0; v = member_next_[v]) order_.push_back(v);
}

std::vector<index> Amd::run() {
  const index n = n_;
  order_.reserve(static_cast<std::size_t>(n));
  const index dense = std::min(
      n - 2, std::max<index>(16, static_cast<index>(10.0 * std::sqrt(static_cast<double>(n)))));

  // Isolated rows cause no fill: order them first. Dense rows leave the
  // graph (nv_ = 0 prunes them from every list) and are ordered last.
  std::vector<index> dense_rows;
  index nel = 0;  // eliminated (or set aside) rows
  for (index i = 0; i < n; ++i) {
    if (len_[i] == 0) {
      emit(i);
      nv_[i] = 0;
      pe_[i] = -1;
      ++nel;
    } else if (len_[i] > dense) {
      dense_rows.push_back(i);
      nv_[i] = 0;
      pe_[i] = -1;
      ++nel;
    } else {
      degree_insert(i, len_[i]);
    }
  }

  index mindeg = 0;
  index mark = 2;   // above every initial w_, so all elements start fresh
  index lemax = 0;  // largest element size so far
  while (nel < n) {
    // Pivot: a variable of least approximate degree. Degree lists are
    // LIFO, so among equals the one inserted last wins.
    while (head_[mindeg] < 0) ++mindeg;
    const index me = head_[mindeg];
    degree_remove(me);
    const index elenme = elen_[me];
    index nvpiv = nv_[me];
    nel += nvpiv;
    emit(me);

    // New element Lme: me's variables plus the variables of every element
    // adjacent to me, each of which it absorbs. Built over me's own list
    // when me touches no element, else in the free space of iw_.
    if (elenme > 0) {
      index need = len_[me] - elenme;
      for (index p = pe_[me]; p < pe_[me] + elenme; ++p) need += len_[iw_[p]];
      reserve_list(need);
    }
    nv_[me] = -nvpiv;  // negative nv_ flags membership in Lme
    index degme = 0;
    index p = pe_[me];
    const index pme1 = elenme == 0 ? p : pfree_;
    index pme2 = pme1;
    for (index k = 0; k <= elenme; ++k) {
      const index e = k < elenme ? iw_[p++] : me;
      index pj = e == me ? p : pe_[e];
      const index ln = e == me ? len_[me] - elenme : len_[e];
      for (index t = 0; t < ln; ++t) {
        const index i = iw_[pj++];
        const index nvi = nv_[i];
        if (nvi <= 0) continue;  // dead, dense or already in Lme
        degme += nvi;
        nv_[i] = -nvi;
        iw_[pme2++] = i;
        degree_remove(i);
      }
      if (e != me) {
        pe_[e] = -1;
        w_[e] = 0;
      }
    }
    if (elenme > 0) pfree_ = pme2;
    pe_[me] = pme1;
    len_[me] = pme2 - pme1;
    elen_[me] = -1;

    // w_[e] - mark = |Le \ Lme| for every element e adjacent to Lme.
    for (index q = pme1; q < pme2; ++q) {
      const index i = iw_[q];
      const index nvi = -nv_[i];
      for (index r = pe_[i]; r < pe_[i] + elen_[i]; ++r) {
        const index e = iw_[r];
        if (w_[e] >= mark) {
          w_[e] -= nvi;
        } else if (w_[e] != 0) {
          w_[e] = deg_[e] - nvi + mark;
        }
      }
    }

    // Degree bound and list pruning for each variable of Lme. An element
    // covered by Lme is absorbed (aggressive absorption); a variable with
    // nothing outside Lme is eliminated with me (mass elimination).
    for (index q = pme1; q < pme2; ++q) {
      const index i = iw_[q];
      const index p1 = pe_[i];
      const index p2 = p1 + elen_[i];
      index pn = p1;
      index d = 0;  // external degree outside Lme
      index h = 0;  // hash of the pruned list
      for (index r = p1; r < p2; ++r) {
        const index e = iw_[r];
        if (w_[e] == 0) continue;
        const index dext = w_[e] - mark;
        if (dext > 0) {
          d += dext;
          iw_[pn++] = e;
          h += e;
        } else {
          pe_[e] = -1;
          w_[e] = 0;
        }
      }
      elen_[i] = pn - p1 + 1;  // the kept elements and me
      const index p3 = pn;
      for (index r = p2; r < p1 + len_[i]; ++r) {
        const index j = iw_[r];
        if (nv_[j] <= 0) continue;  // in Lme, dead or dense
        d += nv_[j];
        iw_[pn++] = j;
        h += j;
      }
      if (d == 0) {
        const index nvi = -nv_[i];
        degme -= nvi;
        nvpiv += nvi;
        nel += nvi;
        nv_[i] = 0;
        pe_[i] = -1;
        emit(i);
        continue;
      }
      deg_[i] = std::min(deg_[i], d);
      // Put me first: the first kept element moves behind the others and
      // the first variable to the end. Absorbing Eme and pruning me from
      // the variables freed at least one slot.
      PMTBR_DEBUG_ASSERT(pn < p1 + len_[i], "amd list outgrew its slot");
      iw_[pn] = iw_[p3];
      iw_[p3] = iw_[p1];
      iw_[p1] = me;
      len_[i] = pn - p1 + 1;
      hash_[i] = h % n;
      hnext_[i] = hhead_[hash_[i]];
      hhead_[hash_[i]] = i;
    }
    deg_[me] = degme;
    lemax = std::max(lemax, degme);
    mark += lemax + 1;  // above every w_ written in this step

    // Supervariables: variables of Lme with equal lists (after me, which
    // heads all of them) are indistinguishable; merge each into the first.
    for (index q = pme1; q < pme2; ++q) {
      index i = iw_[q];
      if (nv_[i] >= 0) continue;  // eliminated or merged
      const index bucket = hash_[i];
      i = hhead_[bucket];
      hhead_[bucket] = -1;
      for (; i >= 0 && hnext_[i] >= 0; i = hnext_[i], ++mark) {
        const index ln = len_[i];
        const index eln = elen_[i];
        for (index r = pe_[i] + 1; r < pe_[i] + ln; ++r) w_[iw_[r]] = mark;
        index jlast = i;
        for (index j = hnext_[i]; j >= 0;) {
          bool same = len_[j] == ln && elen_[j] == eln;
          for (index r = pe_[j] + 1; same && r < pe_[j] + ln; ++r) same = w_[iw_[r]] == mark;
          if (same) {
            nv_[i] += nv_[j];
            nv_[j] = 0;
            pe_[j] = -1;
            member_next_[member_tail_[i]] = j;
            member_tail_[i] = member_tail_[j];
            j = hnext_[j];
            hnext_[jlast] = j;
          } else {
            jlast = j;
            j = hnext_[j];
          }
        }
      }
    }

    // Final degrees; Lme keeps its surviving principal variables.
    index pout = pme1;
    for (index q = pme1; q < pme2; ++q) {
      const index i = iw_[q];
      const index nvi = -nv_[i];
      if (nvi <= 0) continue;
      nv_[i] = nvi;
      const index d = std::min(deg_[i] + degme - nvi, n - nel - nvi);
      degree_insert(i, d);
      mindeg = std::min(mindeg, d);
      iw_[pout++] = i;
    }
    nv_[me] = nvpiv;
    len_[me] = pout - pme1;
    if (len_[me] == 0) {
      pe_[me] = -1;
      w_[me] = 0;
    }
    if (elenme > 0) pfree_ = pout;
  }

  order_.insert(order_.end(), dense_rows.begin(), dense_rows.end());
  PMTBR_ENSURE(static_cast<index>(order_.size()) == n, "amd lost track of a row");
  return std::move(order_);
}

}  // namespace

std::vector<index> amd_ordering(const CsrD& a) {
  PMTBR_REQUIRE(a.rows() == a.cols(), "amd requires a square matrix");
  return Amd(a).run();
}

}  // namespace pmtbr::sparse
