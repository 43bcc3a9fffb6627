// Deterministic 128-bit content fingerprints for cross-job caching
// (docs/SERVING.md).
//
// A Fingerprint is a stable hash of "everything that determines the
// result": the caching layers key reduced models by (system content,
// canonicalized options) and shifted solves by (system content, shift). Two requirements drive the design:
//
//  - determinism across processes and thread schedules: the digest is a
//    pure function of the mixed values and their order, built on the
//    splitmix64 finalizer (the same primitive util/faultinject uses for
//    its keyed decisions) — no pointers, no iteration-order hazards;
//  - structural sensitivity: values are mixed with a running position
//    counter, so permuting inputs or moving a boundary between two mixed
//    spans changes the digest (mix(a), mix(b) != mix(b), mix(a)).
//
// Doubles are hashed by bit pattern (std::bit_cast), so a fingerprint
// match implies bit-identical inputs — the property the bit-identical
// cache-hit guarantee rests on. (+0.0 and -0.0 therefore hash
// differently; that is intentional.)
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace pmtbr::util {

/// splitmix64 — the standard 64-bit finalizer; good avalanche, no state.
inline constexpr std::uint64_t fingerprint_mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint& a, const Fingerprint& b) noexcept {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const Fingerprint& a, const Fingerprint& b) noexcept {
    return !(a == b);
  }

  /// 32 lowercase hex digits (hi then lo), for logs and manifests.
  std::string hex() const;
};

/// Hash functor for unordered containers keyed by Fingerprint.
struct FingerprintHash {
  std::size_t operator()(const Fingerprint& f) const noexcept {
    return static_cast<std::size_t>(f.hi ^ fingerprint_mix(f.lo));
  }
};

/// Order-sensitive streaming hasher producing a Fingerprint. Two lanes are
/// mixed with different tweaks so 128 bits carry more than a repeated
/// 64-bit digest.
class FingerprintHasher {
 public:
  void mix(std::uint64_t v) noexcept {
    h1_ = fingerprint_mix(h1_ ^ v);
    h2_ = fingerprint_mix(h2_ + v + (count_ << 1 | 1));
    ++count_;
  }

  void mix_i64(std::int64_t v) noexcept { mix(static_cast<std::uint64_t>(v)); }
  void mix_double(double v) noexcept { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix_bool(bool v) noexcept { mix(v ? 1u : 0u); }

  /// Mixes a span of integral values (index vectors, enum arrays).
  template <typename Int>
  void mix_ints(const Int* p, std::size_t n) noexcept {
    mix(n);
    for (std::size_t i = 0; i < n; ++i)
      mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(p[i])));
  }
  template <typename Int>
  void mix_ints(const std::vector<Int>& v) noexcept {
    mix_ints(v.data(), v.size());
  }

  void mix_doubles(const double* p, std::size_t n) noexcept {
    mix(n);
    for (std::size_t i = 0; i < n; ++i) mix_double(p[i]);
  }
  void mix_doubles(const std::vector<double>& v) noexcept {
    mix_doubles(v.data(), v.size());
  }

  Fingerprint digest() const noexcept {
    // Final mixes fold the element count into both lanes so an empty
    // hasher and one that mixed a single zero differ.
    return Fingerprint{fingerprint_mix(h1_ ^ count_),
                       fingerprint_mix(h2_ ^ (count_ * 0x9e3779b97f4a7c15ULL))};
  }

 private:
  std::uint64_t h1_ = 0x8f5c'1c47'9f0a'2d3bULL;
  std::uint64_t h2_ = 0x243f'6a88'85a3'08d3ULL;
  std::uint64_t count_ = 0;
};

}  // namespace pmtbr::util
