// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
// check framing every durable artifact in this repo (WAL records,
// checkpoint files). Incremental: feed chunks through the running value,
// compare the final against the stored footer.
//
// Two loops compute the same function. On x86-64 CPUs with PCLMULQDQ and
// SSE4.1 (checked once at run time), inputs of 64 B or more are folded
// 64 bytes per step by carry-less multiplication and reduced with
// Barrett (Gopal et al., "Fast CRC Computation for Generic Polynomials
// Using PCLMULQDQ Instruction", Intel, 2009). Everything else — other
// CPUs, inputs under 64 B, the last 0–15 bytes after a fold — runs the
// table loop, sliced by 8 (eight input bytes per step). Both give the
// values the bytewise definition gives, so no stored CRC depends on which
// loop wrote or checks it.
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

namespace detail {

/// The sliced table loop alone, whatever the CPU: the fallback path,
/// callable so tests can check it on inputs the fold would take.
[[nodiscard]] std::uint32_t crc32_update_sliced(std::uint32_t crc,
                                                std::string_view bytes);

}  // namespace detail
}  // namespace kcore::util
