#include "rodain/common/serialization.hpp"

#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define RODAIN_HAVE_SSE42_CRC 1
#else
#define RODAIN_HAVE_SSE42_CRC 0
#endif

namespace rodain {

void ByteWriter::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    put_u8(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  put_u8(static_cast<std::uint8_t>(v));
}

void ByteWriter::put_bytes(std::span<const std::byte> data) {
  put_varint(data.size());
  put_raw(data);
}

void ByteWriter::put_string(std::string_view s) {
  put_bytes(std::as_bytes(std::span{s.data(), s.size()}));
}

void ByteWriter::put_raw(std::span<const std::byte> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void ByteWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    buf_.at(offset + i) = static_cast<std::byte>((v >> (8 * i)) & 0xff);
  }
}

void ByteWriter::patch_u64(std::size_t offset, std::uint64_t v) {
  patch_u32(offset, static_cast<std::uint32_t>(v));
  patch_u32(offset + 4, static_cast<std::uint32_t>(v >> 32));
}

Status ByteReader::get_u8(std::uint8_t& out) { return get_le(out); }
Status ByteReader::get_u16(std::uint16_t& out) { return get_le(out); }
Status ByteReader::get_u32(std::uint32_t& out) { return get_le(out); }
Status ByteReader::get_u64(std::uint64_t& out) { return get_le(out); }

Status ByteReader::get_i64(std::int64_t& out) {
  std::uint64_t v;
  if (auto s = get_le(v); !s) return s;
  out = static_cast<std::int64_t>(v);
  return Status::ok();
}

Status ByteReader::get_f64(double& out) {
  std::uint64_t bits;
  if (auto s = get_le(bits); !s) return s;
  std::memcpy(&out, &bits, sizeof out);
  return Status::ok();
}

Status ByteReader::get_varint(std::uint64_t& out) {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    std::uint8_t b;
    if (auto s = get_u8(b); !s) return s;
    if (shift >= 63 && (b & 0x7e) != 0) {
      return Status::error(ErrorCode::kCorruption, "varint overflow");
    }
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  out = v;
  return Status::ok();
}

Status ByteReader::get_bytes(std::vector<std::byte>& out) {
  std::uint64_t n;
  if (auto s = get_varint(n); !s) return s;
  std::span<const std::byte> raw;
  if (auto s = get_raw(n, raw); !s) return s;
  out.assign(raw.begin(), raw.end());
  return Status::ok();
}

Status ByteReader::get_string(std::string& out) {
  std::uint64_t n;
  if (auto s = get_varint(n); !s) return s;
  std::span<const std::byte> raw;
  if (auto s = get_raw(n, raw); !s) return s;
  out.assign(reinterpret_cast<const char*>(raw.data()), raw.size());
  return Status::ok();
}

Status ByteReader::get_raw(std::size_t n, std::span<const std::byte>& out) {
  if (remaining() < n) {
    return Status::error(ErrorCode::kCorruption, "truncated buffer");
  }
  out = data_.subspan(pos_, n);
  pos_ += n;
  return Status::ok();
}

namespace {

constexpr std::uint32_t kCrc32cPoly = 0x82f63b78u;  // reflected Castagnoli

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (kCrc32cPoly ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

using CrcFn = std::uint32_t (*)(std::span<const std::byte>, std::uint32_t);

/// The SSE4.2 path when the CPU has it, chosen once: the compile flags stay
/// generic, so the same binary runs on CPUs without the instruction.
CrcFn select_crc32c() {
  return detail::crc32c_hardware_available() ? detail::crc32c_hardware
                                             : detail::crc32c_portable;
}

}  // namespace

namespace detail {

std::uint32_t crc32c_portable(std::span<const std::byte> data,
                              std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xffffffffu;
  for (std::byte b : data) {
    c = kCrcTable[(c ^ static_cast<std::uint8_t>(b)) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

#if RODAIN_HAVE_SSE42_CRC
bool crc32c_hardware_available() {
  __builtin_cpu_init();  // the first call may come from a static initializer
  return __builtin_cpu_supports("sse4.2");
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_hardware(
    std::span<const std::byte> data, std::uint32_t seed) {
  // The instruction computes the same reflected Castagnoli CRC as the table,
  // eight bytes per step; the tail finishes a byte at a time.
  const std::byte* p = data.data();
  std::size_t n = data.size();
  std::uint64_t c = seed ^ 0xffffffffu;
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n > 0; ++p, --n) {
    c32 = _mm_crc32_u8(c32, static_cast<std::uint8_t>(*p));
  }
  return c32 ^ 0xffffffffu;
}
#else
bool crc32c_hardware_available() { return false; }

std::uint32_t crc32c_hardware(std::span<const std::byte> data,
                              std::uint32_t seed) {
  return crc32c_portable(data, seed);
}
#endif

}  // namespace detail

std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed) {
  static const CrcFn impl = select_crc32c();
  return impl(data, seed);
}

}  // namespace rodain
