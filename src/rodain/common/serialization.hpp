// Byte-level serialization for log records, network frames and checkpoints.
//
// Fixed little-endian encoding; readers are bounds-checked and never throw —
// a truncated or corrupt buffer turns into a failed Status so that torn log
// tails and bad frames are handled as data, not as crashes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rodain/common/status.hpp"

namespace rodain {

/// Append-only binary encoder.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void put_u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void put_u16(std::uint16_t v) { put_le(v); }
  void put_u32(std::uint32_t v) { put_le(v); }
  void put_u64(std::uint64_t v) { put_le(v); }
  void put_i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void put_f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    put_le(bits);
  }

  /// LEB128 variable-length unsigned integer.
  void put_varint(std::uint64_t v);

  /// Length-prefixed (varint) byte string.
  void put_bytes(std::span<const std::byte> data);
  void put_string(std::string_view s);

  /// Raw bytes without a length prefix.
  void put_raw(std::span<const std::byte> data);

  /// Patch a previously written u32/u64 at an absolute offset (lengths).
  void patch_u32(std::size_t offset, std::uint32_t v);
  void patch_u64(std::size_t offset, std::uint64_t v);

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] std::span<const std::byte> view() const { return buf_; }
  [[nodiscard]] std::vector<std::byte> take() { return std::move(buf_); }
  void clear() { buf_.clear(); }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
    }
  }

  std::vector<std::byte> buf_;
};

/// Bounds-checked binary decoder over a borrowed buffer.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  [[nodiscard]] Status get_u8(std::uint8_t& out);
  [[nodiscard]] Status get_u16(std::uint16_t& out);
  [[nodiscard]] Status get_u32(std::uint32_t& out);
  [[nodiscard]] Status get_u64(std::uint64_t& out);
  [[nodiscard]] Status get_i64(std::int64_t& out);
  [[nodiscard]] Status get_f64(double& out);
  [[nodiscard]] Status get_varint(std::uint64_t& out);
  [[nodiscard]] Status get_bytes(std::vector<std::byte>& out);
  [[nodiscard]] Status get_string(std::string& out);
  /// Borrow `n` raw bytes without copying.
  [[nodiscard]] Status get_raw(std::size_t n, std::span<const std::byte>& out);

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  Status get_le(T& out) {
    if (remaining() < sizeof(T)) {
      return Status::error(ErrorCode::kCorruption, "truncated buffer");
    }
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    out = v;
    pos_ += sizeof(T);
    return Status::ok();
  }

  std::span<const std::byte> data_;
  std::size_t pos_{0};
};

/// CRC-32C (Castagnoli). Used to detect torn/corrupt log records, mangled
/// network frames and damaged checkpoints. Runs on the SSE4.2 `crc32`
/// instruction when the CPU has it (selected once, at first use), else on a
/// byte-wise table; both give the same value. Chains: crc32c(b, crc32c(a))
/// equals crc32c of a followed by b.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::byte> data,
                                   std::uint32_t seed = 0);

namespace detail {
/// The two implementations behind crc32c(), exposed so that tests cover the
/// table on hosts where the hardware path is the one selected.
[[nodiscard]] std::uint32_t crc32c_portable(std::span<const std::byte> data,
                                            std::uint32_t seed = 0);
/// True when this CPU can run crc32c_hardware().
[[nodiscard]] bool crc32c_hardware_available();
/// Requires crc32c_hardware_available(); without SSE4.2 support in the
/// build it falls back to the table.
[[nodiscard]] std::uint32_t crc32c_hardware(std::span<const std::byte> data,
                                            std::uint32_t seed = 0);
}  // namespace detail

}  // namespace rodain
