// Little-endian wire encoding shared by the WAL and checkpoint formats.
//
// Explicitly shifted little-endian bytes, one append per field (not
// memcpy-of-struct): durable files must mean the same thing regardless
// of host padding or endianness, and the decoder must treat every field
// read as potentially truncated — a torn tail is a NORMAL state for
// these readers, surfaced as a clean "out of bytes" signal rather than UB.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace kcore::live::wire {

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

inline void put_u32(std::string& out, std::uint32_t v) {
  const char bytes[4] = {
      static_cast<char>(v & 0xFF), static_cast<char>((v >> 8) & 0xFF),
      static_cast<char>((v >> 16) & 0xFF), static_cast<char>((v >> 24) & 0xFF)};
  out.append(bytes, sizeof(bytes));
}

inline void put_u64(std::string& out, std::uint64_t v) {
  const char bytes[8] = {
      static_cast<char>(v & 0xFF),         static_cast<char>((v >> 8) & 0xFF),
      static_cast<char>((v >> 16) & 0xFF), static_cast<char>((v >> 24) & 0xFF),
      static_cast<char>((v >> 32) & 0xFF), static_cast<char>((v >> 40) & 0xFF),
      static_cast<char>((v >> 48) & 0xFF), static_cast<char>((v >> 56) & 0xFF)};
  out.append(bytes, sizeof(bytes));
}

/// Bounds-checked cursor over an encoded buffer. Every get_* returns
/// false when the remaining bytes are too short — the caller decides
/// whether that is a torn tail (stop cleanly) or corruption (refuse).
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] bool get_u8(std::uint8_t& v) {
    if (pos_ + 1 > bytes_.size()) return false;
    v = static_cast<std::uint8_t>(bytes_[pos_++]);
    return true;
  }

  [[nodiscard]] bool get_u32(std::uint32_t& v) {
    if (pos_ + 4 > bytes_.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  [[nodiscard]] bool get_u64(std::uint64_t& v) {
    if (pos_ + 8 > bytes_.size()) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  [[nodiscard]] bool get_bytes(std::size_t len, std::string_view& out) {
    if (pos_ + len > bytes_.size()) return false;
    out = bytes_.substr(pos_, len);
    pos_ += len;
    return true;
  }

  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace kcore::live::wire
