#include "rodain/repl/protocol.hpp"

#include <gtest/gtest.h>

namespace rodain::repl {
namespace {

storage::Value val(std::string_view s) { return storage::Value{s}; }

Message round_trip(const Message& m) {
  auto decoded = decode(encode(m));
  EXPECT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  return decoded.is_ok() ? std::move(decoded).value() : Message{};
}

TEST(ReplProtocol, LogBatchRoundTrip) {
  Message m = Message::log_batch({
      log::Record::write_image(7, 101, val("after")),
      log::Record::commit(7, 3, 3000, 1),
  });
  Message out = round_trip(m);
  EXPECT_EQ(out.type, MsgType::kLogBatch);
  ASSERT_EQ(out.records.size(), 2u);
  EXPECT_EQ(out.records[0], m.records[0]);
  EXPECT_EQ(out.records[1], m.records[1]);
}

TEST(ReplProtocol, EmptyLogBatch) {
  Message out = round_trip(Message::log_batch({}));
  EXPECT_EQ(out.type, MsgType::kLogBatch);
  EXPECT_TRUE(out.records.empty());
}

TEST(ReplProtocol, CommitAckRoundTrip) {
  Message out = round_trip(Message::commit_ack(123456789));
  EXPECT_EQ(out.type, MsgType::kCommitAck);
  EXPECT_EQ(out.seq, 123456789u);
}

TEST(ReplProtocol, HeartbeatRoundTrip) {
  Message out = round_trip(Message::heartbeat(NodeRole::kMirror, 42));
  EXPECT_EQ(out.type, MsgType::kHeartbeat);
  EXPECT_EQ(out.role, NodeRole::kMirror);
  EXPECT_EQ(out.seq, 42u);
}

TEST(ReplProtocol, JoinRequestRoundTrip) {
  Message out = round_trip(Message::join_request(17));
  EXPECT_EQ(out.type, MsgType::kJoinRequest);
  EXPECT_EQ(out.have, 17u);
}

TEST(ReplProtocol, SnapshotChunkRoundTrip) {
  std::vector<std::byte> blob(1000);
  for (std::size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<std::byte>(i);
  Message out = round_trip(Message::snapshot_chunk(77, 3, 10, blob));
  EXPECT_EQ(out.type, MsgType::kSnapshotChunk);
  EXPECT_EQ(out.snapshot_id, 77u);
  EXPECT_EQ(out.chunk_index, 3u);
  EXPECT_EQ(out.chunk_total, 10u);
  EXPECT_EQ(out.blob, blob);
}

TEST(ReplProtocol, SnapshotDoneRoundTrip) {
  Message out = round_trip(Message::snapshot_done(999, 77));
  EXPECT_EQ(out.type, MsgType::kSnapshotDone);
  EXPECT_EQ(out.seq, 999u);
  EXPECT_EQ(out.snapshot_id, 77u);
}

TEST(ReplProtocol, ChunkRetryRoundTrip) {
  Message out = round_trip(Message::chunk_retry(42, {0, 5, 17}));
  EXPECT_EQ(out.type, MsgType::kChunkRetry);
  EXPECT_EQ(out.snapshot_id, 42u);
  EXPECT_EQ(out.missing, (std::vector<std::uint32_t>{0, 5, 17}));
}

TEST(ReplProtocol, SnapshotInstalledRoundTrip) {
  Message out = round_trip(Message::snapshot_installed(0x1234567890abULL));
  EXPECT_EQ(out.type, MsgType::kSnapshotInstalled);
  EXPECT_EQ(out.snapshot_id, 0x1234567890abULL);
}

TEST(ReplProtocol, JoinCompleteRoundTrip) {
  Message out = round_trip(Message::join_complete(77, 123456));
  EXPECT_EQ(out.type, MsgType::kJoinComplete);
  EXPECT_EQ(out.snapshot_id, 77u);
  EXPECT_EQ(out.seq, 123456u);
}

TEST(ReplProtocol, JoinMessagesRejectTruncationAndCorruption) {
  for (const Message& m : {Message::snapshot_installed(1ULL << 40),
                           Message::join_complete(1ULL << 40, 1 << 20)}) {
    const auto payload = encode(m);
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      std::vector<std::byte> prefix(payload.begin(), payload.begin() + cut);
      EXPECT_FALSE(decode(prefix).is_ok())
          << static_cast<int>(m.type) << " cut to " << cut;
    }
    const auto framed = encode_framed(3, 9, m);
    for (std::size_t cut = 0; cut < framed.size(); ++cut) {
      std::vector<std::byte> prefix(framed.begin(), framed.begin() + cut);
      EXPECT_FALSE(decode_framed(prefix).is_ok())
          << static_cast<int>(m.type) << " framed cut to " << cut;
    }
    for (std::size_t i = 0; i < framed.size(); ++i) {
      auto copy = framed;
      copy[i] ^= std::byte{0x01};
      EXPECT_FALSE(decode_framed(copy).is_ok())
          << static_cast<int>(m.type) << " flip at byte " << i;
    }
  }
}

TEST(ReplProtocol, FramedRoundTrip) {
  Message m = Message::commit_ack(99);
  auto bytes = encode_framed(7, 12, m);
  auto frame = decode_framed(bytes);
  ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
  EXPECT_EQ(frame.value().epoch, 7u);
  EXPECT_EQ(frame.value().frame_seq, 12u);
  EXPECT_EQ(frame.value().msg.type, MsgType::kCommitAck);
  EXPECT_EQ(frame.value().msg.seq, 99u);
}

TEST(ReplProtocol, FramedEncodeIntoReusedBufferMatchesFreshEncode) {
  // The endpoint reuses one ByteWriter across sends; the appended bytes must
  // be identical to a fresh allocation, frame after frame.
  ByteWriter reused;
  for (std::uint64_t frame_seq = 1; frame_seq <= 3; ++frame_seq) {
    Message m = Message::commit_ack(100 + frame_seq);
    reused.clear();
    encode_framed_into(7, frame_seq, m, reused);
    const auto view = reused.view();
    const std::vector<std::byte> bytes(view.begin(), view.end());
    EXPECT_EQ(bytes, encode_framed(7, frame_seq, m)) << frame_seq;
    auto frame = decode_framed(bytes);
    ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
    EXPECT_EQ(frame.value().msg.seq, 100 + frame_seq);
  }
}

TEST(ReplProtocol, FramedCrcRejectsBitFlip) {
  auto bytes = encode_framed(7, 12, Message::commit_ack(99));
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto copy = bytes;
    copy[i] ^= std::byte{0x01};
    EXPECT_FALSE(decode_framed(copy).is_ok()) << "flip at byte " << i;
  }
}

TEST(ReplProtocol, FramedTruncationRejected) {
  auto bytes = encode_framed(1, 1, Message::heartbeat(NodeRole::kMirror, 4));
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::vector<std::byte> prefix(bytes.begin(), bytes.begin() + cut);
    EXPECT_FALSE(decode_framed(prefix).is_ok()) << "cut to " << cut;
  }
}

TEST(ReplProtocol, GarbageRejected) {
  std::vector<std::byte> garbage{std::byte{0xfe}, std::byte{0x01}};
  EXPECT_FALSE(decode(garbage).is_ok());
  EXPECT_FALSE(decode({}).is_ok());
}

TEST(ReplProtocol, TruncatedMessageRejected) {
  auto bytes = encode(Message::commit_ack(1 << 20));
  bytes.resize(bytes.size() - 1);
  EXPECT_FALSE(decode(bytes).is_ok());
}

TEST(ReplProtocol, TrailingBytesRejected) {
  auto bytes = encode(Message::commit_ack(5));
  bytes.push_back(std::byte{0});
  EXPECT_FALSE(decode(bytes).is_ok());
}

TEST(ReplProtocol, CorruptRecordInBatchRejected) {
  auto bytes = encode(Message::log_batch({log::Record::commit(1, 1, 1000, 0)}));
  bytes[bytes.size() / 2] ^= std::byte{0x80};
  EXPECT_FALSE(decode(bytes).is_ok());
}

}  // namespace
}  // namespace rodain::repl
