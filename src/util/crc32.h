// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
// check framing every durable artifact in this repo (WAL records,
// checkpoint files). Table-driven, sliced by 8 (eight input bytes per
// step), incremental: feed chunks through the running value, compare the
// final against the stored footer.
#pragma once

#include <cstdint>
#include <string_view>

namespace kcore::util {

/// One-shot CRC-32 of `bytes`.
[[nodiscard]] std::uint32_t crc32(std::string_view bytes);

/// Incremental form: fold `bytes` into a running CRC (start from 0).
/// crc32(a + b) == crc32_update(crc32_update(0, a), b).
[[nodiscard]] std::uint32_t crc32_update(std::uint32_t crc,
                                         std::string_view bytes);

}  // namespace kcore::util
