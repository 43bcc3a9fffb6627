// Register-tiled, cache-blocked GEMM core (the BLIS/GotoBLAS loop nest),
// shared by la::matmul and the compressor's fold and basis products.
//
// Layout of the nest, outermost first:
//
//   jc over nc columns of B/C   (B column block fits L3)
//   pc over kc rows of B        (packed B panel fits L2; C accumulates
//                                across pc blocks IN ORDER, so results are
//                                independent of how the inner loops are
//                                scheduled across threads)
//   ic over mc rows of A        (packed A block fits L1/L2)
//   jr over nr columns          (one packed B micro-panel)
//   ir over mr rows             (one packed A micro-panel)
//   microkernel: mr×nr register tile accumulating over kc
//
// Packing reads A and B through arbitrary (row, col) strides, so transposed
// and conjugate-transposed operands cost nothing extra — `matmul_at` and the
// compressor's basisᵀ·U product never materialize a transpose. Edge tiles are
// zero-padded in the packed buffers; the microkernel is unconditional and
// only the C write-back is masked.
//
// Parallelism: the jr strip loop of each (pc, ic) block fans out on the
// shared pool. Only disjoint C tiles are written concurrently and the pc
// accumulation order is fixed, so results are bit-identical for every
// thread count. Packed buffers are allocated by the caller (never inside a
// parallel body — see the alloc-in-parallel analyzer check).
//
// Blocking parameters target the generic x86-64 baseline; configure with
// -DPMTBR_NATIVE=ON (-march=native) to let the compiler widen the
// microkernel to the host's vector ISA. See docs/PERFORMANCE.md.
#pragma once

#include <complex>
#include <vector>

#include "la/kernel_clones.hpp"
#include "la/matrix.hpp"
#include "util/thread_pool.hpp"

namespace pmtbr::la::detail {

/// How the computed product lands in C.
enum class GemmAcc {
  kSet,  // C  = A·B
  kAdd,  // C += A·B
  kSub,  // C -= A·B
};

template <typename T>
struct GemmBlocking {
  static constexpr index mr = 4;    // register tile rows
  static constexpr index nr = 8;    // register tile cols
  static constexpr index mc = 96;   // A block rows   (multiple of mr)
  static constexpr index kc = 256;  // shared K block
  static constexpr index nc = 512;  // B block cols   (multiple of nr)
};

// Complex scalars are twice the width and the multiply is four flops, so
// the register tile halves in each direction.
template <>
struct GemmBlocking<cd> {
  static constexpr index mr = 2;
  static constexpr index nr = 4;
  static constexpr index mc = 64;
  static constexpr index kc = 128;
  static constexpr index nc = 256;
};

template <bool Conj, typename T>
inline T conj_if(const T& x) {
  if constexpr (Conj && std::is_same_v<T, cd>) {
    return std::conj(x);
  } else {
    return x;
  }
}

/// Packs the mb×kb block of A (element (i,k) at a[i*rs + k*cs]) into
/// mr-row micro-panels: ap[t*mr*kb + k*mr + r] = A(t*mr + r, k), zero-padded
/// to a whole tile in the row direction.
template <typename T, bool Conj>
void pack_a_block(const T* a, index rs, index cs, index mb, index kb, T* ap) {
  constexpr index mr = GemmBlocking<T>::mr;
  for (index t = 0; t < mb; t += mr) {
    const index me = std::min<index>(mr, mb - t);
    T* dst = ap + t * kb;
    for (index k = 0; k < kb; ++k) {
      const T* src = a + t * rs + k * cs;
      index r = 0;
      for (; r < me; ++r) dst[k * mr + r] = conj_if<Conj>(src[r * rs]);
      for (; r < mr; ++r) dst[k * mr + r] = T{};
    }
  }
}

/// Packs the kb×nb block of B (element (k,j) at b[k*rs + j*cs]) into
/// nr-column micro-panels: bp[t*nr*kb + k*nr + c] = B(k, t*nr + c),
/// zero-padded to a whole tile in the column direction.
template <typename T>
void pack_b_block(const T* b, index rs, index cs, index kb, index nb, T* bp) {
  constexpr index nr = GemmBlocking<T>::nr;
  for (index t = 0; t < nb; t += nr) {
    const index ne = std::min<index>(nr, nb - t);
    T* dst = bp + t * kb;
    for (index k = 0; k < kb; ++k) {
      const T* src = b + k * rs + t * cs;
      index c = 0;
      for (; c < ne; ++c) dst[k * nr + c] = src[c * cs];
      for (; c < nr; ++c) dst[k * nr + c] = T{};
    }
  }
}

/// mr×nr register-tile microkernel over a kb-deep packed panel pair. The
/// accumulator lives in registers; only the masked write-back touches C.
template <typename T>
void micro_kernel(index kb, const T* __restrict__ ap, const T* __restrict__ bp, T* c, index ldc,
                  index me, index ne, GemmAcc mode) {
  constexpr index mr = GemmBlocking<T>::mr;
  constexpr index nr = GemmBlocking<T>::nr;
  T acc[mr][nr] = {};
  for (index k = 0; k < kb; ++k) {
    const T* __restrict__ a = ap + k * mr;
    const T* __restrict__ b = bp + k * nr;
    for (index r = 0; r < mr; ++r) {
      const T av = a[r];
      for (index j = 0; j < nr; ++j) acc[r][j] += av * b[j];
    }
  }
  switch (mode) {
    case GemmAcc::kSet:
      for (index r = 0; r < me; ++r)
        for (index j = 0; j < ne; ++j) c[r * ldc + j] = acc[r][j];
      break;
    case GemmAcc::kAdd:
      for (index r = 0; r < me; ++r)
        for (index j = 0; j < ne; ++j) c[r * ldc + j] += acc[r][j];
      break;
    case GemmAcc::kSub:
      for (index r = 0; r < me; ++r)
        for (index j = 0; j < ne; ++j) c[r * ldc + j] -= acc[r][j];
      break;
  }
}

/// One packed-A × packed-B macrokernel: the mb×nb C block at `c`. `strip`
/// selects a single jr strip (for pool fan-out) or -1 for all strips.
template <typename T>
void macro_kernel(index mb, index nb, index kb, const T* ap, const T* bp, T* c, index ldc,
                  GemmAcc mode, index strip = -1) {
  constexpr index mr = GemmBlocking<T>::mr;
  constexpr index nr = GemmBlocking<T>::nr;
  const index j0 = strip < 0 ? 0 : strip * nr;
  const index j1 = strip < 0 ? nb : std::min<index>(j0 + nr, nb);
  for (index jr = j0; jr < j1; jr += nr) {
    const index ne = std::min<index>(nr, nb - jr);
    for (index ir = 0; ir < mb; ir += mr) {
      const index me = std::min<index>(mr, mb - ir);
      micro_kernel(kb, ap + ir * kb, bp + jr * kb, c + ir * ldc + jr, ldc, me, ne, mode);
    }
  }
}

// One macrokernel clone per ISA level (la/kernel_clones.hpp); `flatten`
// pulls micro_kernel into each, so the register tile is vectorized at that
// clone's width.
PMTBR_KERNEL_CLONES
static void macro_kernel_isa(index mb, index nb, index kb, const double* ap, const double* bp,
                             double* c, index ldc, GemmAcc mode, index strip) {
  macro_kernel<double>(mb, nb, kb, ap, bp, c, ldc, mode, strip);
}

PMTBR_KERNEL_CLONES
static void macro_kernel_isa(index mb, index nb, index kb, const cd* ap, const cd* bp, cd* c,
                             index ldc, GemmAcc mode, index strip) {
  macro_kernel<cd>(mb, nb, kb, ap, bp, c, ldc, mode, strip);
}

// Flop count below which a product is not worth scheduling on the pool
// (shared with la::matmul's legacy threshold).
inline constexpr double kGemmParallelFlops = 1 << 18;

/// Blocked GEMM over strided operands: C(m×n, row-major with leading
/// dimension ldc) op= A(m×k, element (i,l) at a[i*a_rs + l*a_cs], optionally
/// conjugated) · B(k×n, element (l,j) at b[l*b_rs + j*b_cs]).
///
/// C must not alias A or B (packing would read half-updated values).
/// Deterministic: bit-identical results for every pool size.
template <typename T, bool ConjA = false>
void gemm(index m, index n, index k, const T* a, index a_rs, index a_cs, const T* b, index b_rs,
          index b_cs, T* c, index ldc, GemmAcc mode) {
  using B = GemmBlocking<T>;
  if (m <= 0 || n <= 0) return;
  if (k <= 0) {
    if (mode == GemmAcc::kSet)
      for (index i = 0; i < m; ++i)
        for (index j = 0; j < n; ++j) c[i * ldc + j] = T{};
    return;
  }

  // Packed panels are reused across the whole nest; they are allocated here
  // on the calling thread, never inside the parallel strips.
  std::vector<T> ap(static_cast<std::size_t>(std::min(B::mc, ((m + B::mr - 1) / B::mr) * B::mr) *
                                             std::min(B::kc, k)));
  std::vector<T> bp(static_cast<std::size_t>(std::min(B::kc, k) *
                                             std::min(B::nc, ((n + B::nr - 1) / B::nr) * B::nr)));

  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                       static_cast<double>(k);
  const bool parallel = flops >= kGemmParallelFlops && util::global_pool().size() > 1;

  for (index jc = 0; jc < n; jc += B::nc) {
    const index nb = std::min<index>(B::nc, n - jc);
    for (index pc = 0; pc < k; pc += B::kc) {
      const index kb = std::min<index>(B::kc, k - pc);
      // First K block honours the caller's mode; later blocks accumulate
      // into it (or keep subtracting, for kSub).
      const GemmAcc block_mode = pc == 0 ? mode : (mode == GemmAcc::kSub ? GemmAcc::kSub
                                                                         : GemmAcc::kAdd);
      pack_b_block(b + pc * b_rs + jc * b_cs, b_rs, b_cs, kb, nb, bp.data());
      for (index ic = 0; ic < m; ic += B::mc) {
        const index mb = std::min<index>(B::mc, m - ic);
        pack_a_block<T, ConjA>(a + ic * a_rs + pc * a_cs, a_rs, a_cs, mb, kb, ap.data());
        T* cblk = c + ic * ldc + jc;
        const index strips = (nb + B::nr - 1) / B::nr;
        if (parallel && strips > 1) {
          util::parallel_for(0, strips, [&](index s) {
            macro_kernel_isa(mb, nb, kb, ap.data(), bp.data(), cblk, ldc, block_mode, s);
          });
        } else {
          macro_kernel_isa(mb, nb, kb, ap.data(), bp.data(), cblk, ldc, block_mode, index{-1});
        }
      }
    }
  }
}

/// Convenience wrapper over whole row-major matrices: C op= A·B.
template <typename T>
void gemm_matrices(const Matrix<T>& a, const Matrix<T>& b, Matrix<T>& c, GemmAcc mode) {
  gemm<T, false>(a.rows(), b.cols(), a.cols(), a.data(), a.cols(), 1, b.data(), b.cols(), 1,
                 c.data(), c.cols(), mode);
}

}  // namespace pmtbr::la::detail
