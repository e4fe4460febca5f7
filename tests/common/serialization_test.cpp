#include "rodain/common/serialization.hpp"

#include <gtest/gtest.h>

#include "rodain/common/rng.hpp"

namespace rodain {
namespace {

TEST(ByteWriterReader, FixedWidthRoundTrip) {
  ByteWriter w;
  w.put_u8(0xab);
  w.put_u16(0x1234);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefULL);
  w.put_i64(-42);
  w.put_f64(3.14159);

  ByteReader r(w.view());
  std::uint8_t u8;
  std::uint16_t u16;
  std::uint32_t u32;
  std::uint64_t u64;
  std::int64_t i64;
  double f64;
  ASSERT_TRUE(r.get_u8(u8));
  ASSERT_TRUE(r.get_u16(u16));
  ASSERT_TRUE(r.get_u32(u32));
  ASSERT_TRUE(r.get_u64(u64));
  ASSERT_TRUE(r.get_i64(i64));
  ASSERT_TRUE(r.get_f64(f64));
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i64, -42);
  EXPECT_DOUBLE_EQ(f64, 3.14159);
  EXPECT_TRUE(r.at_end());
}

TEST(ByteWriterReader, LittleEndianLayout) {
  ByteWriter w;
  w.put_u32(0x01020304);
  auto v = w.view();
  EXPECT_EQ(static_cast<int>(v[0]), 0x04);
  EXPECT_EQ(static_cast<int>(v[3]), 0x01);
}

TEST(ByteWriterReader, VarintRoundTrip) {
  const std::uint64_t cases[] = {0,      1,        127,        128,
                                 16383,  16384,    0xffffffff, 1ULL << 62,
                                 ~0ULL};
  for (auto c : cases) {
    ByteWriter w;
    w.put_varint(c);
    ByteReader r(w.view());
    std::uint64_t out;
    ASSERT_TRUE(r.get_varint(out)) << c;
    EXPECT_EQ(out, c);
    EXPECT_TRUE(r.at_end());
  }
}

TEST(ByteWriterReader, VarintFuzzRoundTrip) {
  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.next_u64() >> (rng.next_below(64));
    ByteWriter w;
    w.put_varint(v);
    ByteReader r(w.view());
    std::uint64_t out;
    ASSERT_TRUE(r.get_varint(out));
    EXPECT_EQ(out, v);
  }
}

TEST(ByteWriterReader, StringRoundTrip) {
  ByteWriter w;
  w.put_string("hello");
  w.put_string("");
  w.put_string(std::string(1000, 'x'));
  ByteReader r(w.view());
  std::string a, b, c;
  ASSERT_TRUE(r.get_string(a));
  ASSERT_TRUE(r.get_string(b));
  ASSERT_TRUE(r.get_string(c));
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c, std::string(1000, 'x'));
}

TEST(ByteWriterReader, TruncationFailsCleanly) {
  ByteWriter w;
  w.put_u64(42);
  auto full = w.view();
  for (std::size_t cut = 0; cut < 8; ++cut) {
    ByteReader r(full.subspan(0, cut));
    std::uint64_t out;
    EXPECT_FALSE(r.get_u64(out)) << cut;
  }
}

TEST(ByteWriterReader, TruncatedStringFails) {
  ByteWriter w;
  w.put_string("hello world");
  auto full = w.view();
  ByteReader r(full.subspan(0, 4));
  std::string out;
  auto s = r.get_string(out);
  EXPECT_FALSE(s);
  EXPECT_EQ(s.code(), ErrorCode::kCorruption);
}

TEST(ByteWriterReader, VarintOverflowRejected) {
  // 10 bytes of 0xff can encode > 64 bits; must be rejected, not wrapped.
  std::vector<std::byte> evil(10, std::byte{0xff});
  ByteReader r(evil);
  std::uint64_t out;
  EXPECT_FALSE(r.get_varint(out));
}

TEST(ByteWriterReader, PatchU32) {
  ByteWriter w;
  w.put_u32(0);  // placeholder
  w.put_string("payload");
  w.patch_u32(0, static_cast<std::uint32_t>(w.size()));
  ByteReader r(w.view());
  std::uint32_t len;
  ASSERT_TRUE(r.get_u32(len));
  EXPECT_EQ(len, w.size());
}

TEST(ByteWriterReader, RawBorrow) {
  ByteWriter w;
  w.put_raw(std::as_bytes(std::span{"abcd", 4}));
  ByteReader r(w.view());
  std::span<const std::byte> raw;
  ASSERT_TRUE(r.get_raw(4, raw));
  EXPECT_EQ(raw.size(), 4u);
  EXPECT_FALSE(r.get_raw(1, raw));
}

TEST(Crc32c, KnownVector) {
  // "123456789" -> 0xE3069283 (CRC-32C check value)
  const char* s = "123456789";
  auto crc = crc32c(std::as_bytes(std::span{s, 9}));
  EXPECT_EQ(crc, 0xE3069283u);
}

TEST(Crc32c, KnownVectorOnBothPaths) {
  const char* s = "123456789";
  const auto bytes = std::as_bytes(std::span{s, 9});
  EXPECT_EQ(detail::crc32c_portable(bytes), 0xE3069283u);
  if (!detail::crc32c_hardware_available()) {
    GTEST_SKIP() << "no SSE4.2 on this CPU: only the table path runs";
  }
  EXPECT_EQ(detail::crc32c_hardware(bytes), 0xE3069283u);
}

TEST(Crc32c, HardwarePathEqualsTablePath) {
  if (!detail::crc32c_hardware_available()) {
    GTEST_SKIP() << "no SSE4.2 on this CPU: only the table path runs";
  }
  // Every length up to 4 KiB at every alignment: the hardware path takes
  // eight bytes per step, so each remainder and start offset must agree.
  std::vector<std::byte> data(4096 + 8);
  std::uint32_t x = 0x9e3779b9u;
  for (std::byte& b : data) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::byte>(x >> 24);
  }
  const std::span<const std::byte> all(data);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      const auto piece = all.subspan(offset, len);
      ASSERT_EQ(detail::crc32c_hardware(piece), detail::crc32c_portable(piece))
          << "offset " << offset << ", length " << len;
    }
  }
  // Chained seeds: a CRC continued from a previous one equals the CRC of
  // the concatenation, on both paths.
  for (std::size_t split : {0u, 1u, 7u, 8u, 9u, 1000u, 4095u, 4096u}) {
    const auto head = all.subspan(0, split);
    const auto tail = all.subspan(split, 4096 - split);
    const std::uint32_t whole = detail::crc32c_portable(all.subspan(0, 4096));
    EXPECT_EQ(detail::crc32c_portable(tail, detail::crc32c_portable(head)),
              whole)
        << split;
    EXPECT_EQ(detail::crc32c_hardware(tail, detail::crc32c_hardware(head)),
              whole)
        << split;
  }
  for (std::uint32_t seed : {0x1u, 0xdeadbeefu, 0xffffffffu}) {
    EXPECT_EQ(detail::crc32c_hardware(all, seed),
              detail::crc32c_portable(all, seed))
        << seed;
  }
}

TEST(Crc32c, DetectsBitFlip) {
  std::vector<std::byte> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::byte>(i);
  const auto good = crc32c(data);
  data[17] ^= std::byte{0x01};
  EXPECT_NE(crc32c(data), good);
}

TEST(Crc32c, EmptyIsStable) {
  EXPECT_EQ(crc32c({}), crc32c({}));
}

}  // namespace
}  // namespace rodain
