// Both CRC-32 loops against the textbook bitwise one: every framing check
// in the WAL and checkpoint formats compares against values the bytewise
// implementation wrote, so the carry-less-multiply fold (taken for inputs
// of 64 B and more where the CPU has it) and the sliced table loop (the
// fallback, reached here through util::detail) must both agree with it
// on every length, alignment and split of the input.
#include "util/crc32.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/rng.h"

namespace kcore::util {
namespace {

/// Bitwise reference (reflected polynomial 0xEDB88320), kept here only.
std::uint32_t reference_crc32(std::string_view bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    c ^= static_cast<unsigned char>(ch);
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
  }
  return c ^ 0xFFFFFFFFu;
}

std::string random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::string out(n, '\0');
  for (char& ch : out) ch = static_cast<char>(rng.next_below(256));
  return out;
}

TEST(Crc32, CheckValue) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(Crc32, EveryLengthTo320AtEveryAlignmentMatchesTheReference) {
  // Past 64 B the fold runs: its 64 B steps, its 16 B steps and the
  // sliced remainder all get every length, at every offset in a lane.
  const std::string buffer = random_bytes(16 + 320, 1);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 320; ++len) {
      const std::string_view bytes =
          std::string_view(buffer).substr(offset, len);
      const std::uint32_t expected = reference_crc32(bytes);
      ASSERT_EQ(crc32(bytes), expected)
          << "offset " << offset << " length " << len;
      ASSERT_EQ(detail::crc32_update_sliced(0, bytes), expected)
          << "sliced, offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, LargeRandomBuffersMatchTheReference) {
  for (const std::size_t size : {std::size_t{64} * 1024, std::size_t{1} << 20}) {
    const std::string buffer = random_bytes(size, 2);
    const std::uint32_t expected = reference_crc32(buffer);
    EXPECT_EQ(crc32(buffer), expected) << size;
    EXPECT_EQ(detail::crc32_update_sliced(0, buffer), expected) << size;
  }
}

TEST(Crc32, UpdateChainsAcrossEverySplitPoint) {
  // 300 B: split points fall before, inside and after 64 B blocks, and
  // each side alone may be long enough to fold or not.
  const std::string buffer = random_bytes(300, 3);
  const std::uint32_t whole = reference_crc32(buffer);
  const std::string_view view(buffer);
  for (std::size_t split = 0; split <= view.size(); ++split) {
    const std::string_view head = view.substr(0, split);
    const std::string_view tail = view.substr(split);
    EXPECT_EQ(crc32_update(crc32_update(0, head), tail), whole)
        << "split " << split;
    EXPECT_EQ(detail::crc32_update_sliced(
                  detail::crc32_update_sliced(0, head), tail),
              whole)
        << "sliced, split " << split;
    // The two loops hand a running value to each other unchanged.
    EXPECT_EQ(crc32_update(detail::crc32_update_sliced(0, head), tail), whole)
        << "mixed, split " << split;
  }
}

TEST(Crc32, ChainsAcrossManyUnevenChunks) {
  const std::string buffer = random_bytes(1 << 20, 4);
  const std::string_view view(buffer);
  Xoshiro256 rng(5);
  std::uint32_t c = 0;
  for (std::size_t at = 0; at < view.size();) {
    const std::size_t len = std::min<std::size_t>(
        view.size() - at, static_cast<std::size_t>(rng.next_below(700)));
    c = crc32_update(c, view.substr(at, len));
    at += len;
  }
  EXPECT_EQ(c, reference_crc32(buffer));
}

}  // namespace
}  // namespace kcore::util
