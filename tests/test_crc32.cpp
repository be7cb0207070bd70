// The sliced CRC-32 against the textbook bytewise loop: every framing
// check in the WAL and checkpoint formats compares against values the
// bytewise implementation wrote, so the two must agree on every length,
// alignment and split of the input.
#include "util/crc32.h"

#include <gtest/gtest.h>

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

TEST(Crc32, EveryShortLengthAtEveryAlignmentMatchesTheReference) {
  const std::string buffer = random_bytes(8 + 67, 1);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 67; ++len) {
      const std::string_view bytes =
          std::string_view(buffer).substr(offset, len);
      ASSERT_EQ(crc32(bytes), reference_crc32(bytes))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, LargeRandomBufferMatchesTheReference) {
  const std::string buffer = random_bytes(64 * 1024, 2);
  EXPECT_EQ(crc32(buffer), reference_crc32(buffer));
}

TEST(Crc32, UpdateChainsAcrossEverySplitPoint) {
  const std::string buffer = random_bytes(100, 3);
  const std::uint32_t whole = reference_crc32(buffer);
  const std::string_view view(buffer);
  for (std::size_t split = 0; split <= view.size(); ++split) {
    EXPECT_EQ(crc32_update(crc32_update(0, view.substr(0, split)),
                           view.substr(split)),
              whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace kcore::util
