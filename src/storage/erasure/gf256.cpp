#include "src/storage/erasure/gf256.hpp"

#include <array>
#include <cassert>
#include <cstddef>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace rds::gf256 {
namespace {

/// The products of one coefficient c: lo[x] = c*x and hi[x] = c*(x << 4)
/// for x < 16.  Aligned so both tables share one cache line.
struct alignas(32) Nibbles {
  std::array<std::uint8_t, 16> lo{};
  std::array<std::uint8_t, 16> hi{};
};

struct Tables {
  std::array<std::uint8_t, 256> log{};
  std::array<std::uint8_t, 512> exp{};  // doubled to skip a mod in mul
  std::array<Nibbles, 256> nibbles{};   // row 0 and every c*0 stay 0

  constexpr Tables() {
    // Generator 2 of GF(2^8)/0x11d.
    unsigned x = 1;
    for (unsigned i = 0; i < 255; ++i) {
      exp[i] = static_cast<std::uint8_t>(x);
      log[x] = static_cast<std::uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= 0x11d;
    }
    for (unsigned i = 255; i < 512; ++i) exp[i] = exp[i - 255];
    log[0] = 0;  // undefined; callers must not rely on it
    for (unsigned c = 1; c < 256; ++c) {
      for (unsigned v = 1; v < 16; ++v) {
        nibbles[c].lo[v] = exp[static_cast<unsigned>(log[c]) + log[v]];
        nibbles[c].hi[v] = exp[static_cast<unsigned>(log[c]) + log[v << 4]];
      }
    }
  }
};

constexpr Tables kT{};

#if defined(__x86_64__)
/// Whether this CPU and its OS run AVX2, asked once.
bool has_avx2() noexcept {
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return yes;
}

/// mul_add over the whole 32-byte steps of [0, n): vpshufb looks up 32
/// low nibbles in `lo` and 32 high nibbles in `hi` at once (each table
/// broadcast to both 128-bit lanes).  Returns the bytes done.
__attribute__((target("avx2"))) std::size_t mul_add_avx2(
    std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
    const Nibbles& t) noexcept {
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.lo.data())));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.hi.data())));
  const __m256i mask = _mm256_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i product = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask)),
        _mm256_shuffle_epi8(hi,
                            _mm256_and_si256(_mm256_srli_epi64(s, 4), mask)));
    __m256i* out = reinterpret_cast<__m256i*>(dst + i);
    _mm256_storeu_si256(out,
                        _mm256_xor_si256(_mm256_loadu_si256(out), product));
  }
  return i;
}
#endif

}  // namespace

std::uint8_t mul(std::uint8_t a, std::uint8_t b) noexcept {
  if (a == 0 || b == 0) return 0;
  return kT.exp[static_cast<unsigned>(kT.log[a]) + kT.log[b]];
}

std::uint8_t inv(std::uint8_t a) noexcept {
  assert(a != 0 && "gf256::inv of zero");
  if (a == 0) return 0;
  return kT.exp[255 - kT.log[a]];
}

void mul_add(std::span<std::uint8_t> dst, std::span<const std::uint8_t> src,
             std::uint8_t c) noexcept {
  assert(dst.size() == src.size());
  if (c == 0) return;
  if (c == 1) {
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] ^= src[i];
    return;
  }
  const Nibbles& t = kT.nibbles[c];
  std::size_t i = 0;
#if defined(__x86_64__)
  if (has_avx2()) i = mul_add_avx2(dst.data(), src.data(), dst.size(), t);
#endif
  // The portable loop: the whole span without AVX2, else its tail.
  for (; i < dst.size(); ++i) {
    dst[i] ^= t.lo[src[i] & 15] ^ t.hi[src[i] >> 4];
  }
}

void scale(std::span<std::uint8_t> dst, std::uint8_t c) noexcept {
  // c*d = d + (c + 1)*d, so scaling is the row operation of dst on itself;
  // c = 1 adds nothing and c = 0 adds dst to itself, leaving zeros.
  mul_add(dst, dst, add(c, 1));
}

}  // namespace rds::gf256
