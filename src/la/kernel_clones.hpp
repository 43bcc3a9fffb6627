// Function multiversioning for the dense kernels: a function marked
// PMTBR_KERNEL_CLONES is compiled once per x86-64 micro-architecture level
// (v4 = AVX-512, v3 = AVX2+FMA, baseline SSE2) and glibc's ifunc machinery
// binds the widest clone the host supports at load time — one portable
// binary, native-width kernels. `flatten` inlines every call inside the
// marked function, so its inner loops are vectorized at each clone's width.
// Builds that already target a wide ISA (-march=native via PMTBR_NATIVE)
// skip the clones: the whole TU is compiled for the host. TSan builds must
// also skip them: the ifunc resolver fires during relocation, before the
// tsan runtime initializes its thread state, and the instrumented dispatch
// segfaults inside libtsan (gcc 12, glibc 2.36).
#pragma once

#if defined(__x86_64__) && defined(__gnu_linux__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__AVX2__) && !defined(__SANITIZE_THREAD__)
#define PMTBR_KERNEL_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default"), flatten, unused))
#else
#define PMTBR_KERNEL_CLONES __attribute__((unused))
#endif
