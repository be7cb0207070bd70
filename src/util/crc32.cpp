#include "util/crc32.h"

#include <array>
#include <cstddef>

#if defined(__x86_64__)
#include <immintrin.h>
#define KCORE_CRC32_FOLD 1
#else
#define KCORE_CRC32_FOLD 0
#endif

namespace kcore::util {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;

// Slicing-by-8 (Kounavis & Berry, ISCC 2005): kTables[0] is the classic
// bytewise table; kTables[k][b] is the CRC of byte b followed by k zero
// bytes, so eight table lookups fold eight input bytes at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
  Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr Tables kTables = make_tables();

/// Little-endian u32 at `p`, byte by byte (no alignment or host-order
/// assumption; compilers fuse it into one load).
inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// The table loop on the raw (uninverted) register `c`.
std::uint32_t sliced(std::uint32_t c, const unsigned char* p, std::size_t n) {
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if KCORE_CRC32_FOLD

// Folding constants for the reflected polynomial, as published with the
// method (and used by zlib and Linux): each is x^k mod P for the
// distance k a fold spans, bit-reflected into the 33-bit form the
// reflected multiply wants.
//   k1, k2  fold a 128-bit lane 512 bits on (the 4-lane, 64 B step)
//   k3, k4  fold it 128 bits on (4 lanes to 1, and the 16 B step)
//   k5      fold 64 bits to 32
//   P', mu  the polynomial and floor(x^64 / P), for Barrett
constexpr long long kK1 = 0x154442bd4, kK2 = 0x1c6e41596;
constexpr long long kK3 = 0x1751997d0, kK4 = 0x0ccaa009e;
constexpr long long kK5 = 0x163cd6124;
constexpr long long kP = 0x1db710641, kMu = 0x1f7011641;

#define KCORE_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

inline __m128i load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// One lane carried forward by the distance `k` encodes: lo·k.lo ^ hi·k.hi.
KCORE_CLMUL_TARGET inline __m128i fold_lane(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

/// Folds `n` bytes (n >= 64, a multiple of 16) into the raw register `c`.
KCORE_CLMUL_TARGET std::uint32_t fold(std::uint32_t c, const unsigned char* p,
                                      std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
  const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
  __m128i x0 = _mm_xor_si128(load128(p),
                             _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load128(p + 16);
  __m128i x2 = load128(p + 32);
  __m128i x3 = load128(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = _mm_xor_si128(fold_lane(x0, k1k2), load128(p));
    x1 = _mm_xor_si128(fold_lane(x1, k1k2), load128(p + 16));
    x2 = _mm_xor_si128(fold_lane(x2, k1k2), load128(p + 32));
    x3 = _mm_xor_si128(fold_lane(x3, k1k2), load128(p + 48));
  }
  __m128i x = _mm_xor_si128(fold_lane(x0, k3k4), x1);
  x = _mm_xor_si128(fold_lane(x, k3k4), x2);
  x = _mm_xor_si128(fold_lane(x, k3k4), x3);
  for (; n >= 16; p += 16, n -= 16) {
    x = _mm_xor_si128(fold_lane(x, k3k4), load128(p));
  }

  // 128 -> 64 bits (appending the 32 zero bits the CRC definition adds),
  // then 64 -> 32.
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  x = _mm_xor_si128(_mm_clmulepi64_si128(k3k4, x, 0x01),
                    _mm_srli_si128(x, 8));
  x = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x, mask32),
                           _mm_set_epi64x(0, kK5), 0x00),
      _mm_srli_si128(x, 4));

  // Barrett reduction, bit-reflected: 64 -> 32 bits.
  const __m128i poly_mu = _mm_set_epi64x(kMu, kP);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly_mu, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(t, x), 1));
}

#undef KCORE_CLMUL_TARGET

bool can_fold() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return supported;
}

#endif  // KCORE_CRC32_FOLD

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, std::string_view bytes) {
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
#if KCORE_CRC32_FOLD
  if (n >= 64 && can_fold()) {
    const std::size_t folded = n & ~std::size_t{15};
    c = fold(c, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return sliced(c, p, n) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(std::string_view bytes) { return crc32_update(0, bytes); }

namespace detail {

std::uint32_t crc32_update_sliced(std::uint32_t crc, std::string_view bytes) {
  return sliced(crc ^ 0xFFFFFFFFu,
                reinterpret_cast<const unsigned char*>(bytes.data()),
                bytes.size()) ^
         0xFFFFFFFFu;
}

}  // namespace detail
}  // namespace kcore::util
