// Little-endian wire encoding shared by the WAL and checkpoint formats.
//
// Little-endian bytes field by field, whatever the host's order: one
// append (put_*) or one store into a buffer already sized (store_*) per
// field, not memcpy-of-struct. Durable files must mean the same thing
// regardless of host padding or endianness, and the decoder must treat
// every field read as potentially truncated — a torn tail is a NORMAL
// state for these readers, surfaced as a clean "out of bytes" signal
// rather than UB.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace kcore::live::wire {

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

// Fixed-width little-endian stores and loads at a raw pointer; the
// caller has sized or bounds-checked the buffer. On a little-endian host
// each is one unaligned move (GCC does not fuse the byte loop into one);
// elsewhere the byte loop defines the order.
template <typename T>
inline char* store_le(char* out, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
  }
  return out + sizeof(T);
}

template <typename T>
inline T load_le(const char* in) {
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, in, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<unsigned char>(in[i])) << (8 * i);
    }
  }
  return v;
}

// The field widths the formats use, fixed by the parameter type.
inline char* store_u32(char* out, std::uint32_t v) { return store_le(out, v); }
inline char* store_u64(char* out, std::uint64_t v) { return store_le(out, v); }
inline std::uint32_t load_u32(const char* in) {
  return load_le<std::uint32_t>(in);
}
inline std::uint64_t load_u64(const char* in) {
  return load_le<std::uint64_t>(in);
}

inline void put_u32(std::string& out, std::uint32_t v) {
  char bytes[4];
  out.append(bytes, store_u32(bytes, v));
}

inline void put_u64(std::string& out, std::uint64_t v) {
  char bytes[8];
  out.append(bytes, store_u64(bytes, v));
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
    v = load_u32(bytes_.data() + pos_);
    pos_ += 4;
    return true;
  }

  [[nodiscard]] bool get_u64(std::uint64_t& v) {
    if (pos_ + 8 > bytes_.size()) return false;
    v = load_u64(bytes_.data() + pos_);
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
