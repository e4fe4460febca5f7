#include "rodain/repl/protocol.hpp"

namespace rodain::repl {

Message Message::log_batch(std::vector<log::Record> records) {
  Message m;
  m.type = MsgType::kLogBatch;
  m.records = std::move(records);
  return m;
}

Message Message::commit_ack(ValidationTs seq) {
  Message m;
  m.type = MsgType::kCommitAck;
  m.seq = seq;
  return m;
}

Message Message::heartbeat(NodeRole role, ValidationTs applied) {
  Message m;
  m.type = MsgType::kHeartbeat;
  m.role = role;
  m.seq = applied;
  return m;
}

Message Message::join_request(ValidationTs have) {
  Message m;
  m.type = MsgType::kJoinRequest;
  m.have = have;
  return m;
}

Message Message::snapshot_chunk(std::uint64_t snapshot_id, std::uint32_t index,
                                std::uint32_t total,
                                std::vector<std::byte> blob) {
  Message m;
  m.type = MsgType::kSnapshotChunk;
  m.snapshot_id = snapshot_id;
  m.chunk_index = index;
  m.chunk_total = total;
  m.blob = std::move(blob);
  return m;
}

Message Message::snapshot_done(ValidationTs boundary,
                               std::uint64_t snapshot_id) {
  Message m;
  m.type = MsgType::kSnapshotDone;
  m.seq = boundary;
  m.snapshot_id = snapshot_id;
  return m;
}

Message Message::chunk_retry(std::uint64_t snapshot_id,
                             std::vector<std::uint32_t> missing) {
  Message m;
  m.type = MsgType::kChunkRetry;
  m.snapshot_id = snapshot_id;
  m.missing = std::move(missing);
  return m;
}

Message Message::snapshot_installed(std::uint64_t snapshot_id) {
  Message m;
  m.type = MsgType::kSnapshotInstalled;
  m.snapshot_id = snapshot_id;
  return m;
}

Message Message::join_complete(std::uint64_t snapshot_id,
                               ValidationTs through) {
  Message m;
  m.type = MsgType::kJoinComplete;
  m.snapshot_id = snapshot_id;
  m.seq = through;
  return m;
}

void encode_into(const Message& m, ByteWriter& w) {
  w.put_u8(static_cast<std::uint8_t>(m.type));
  switch (m.type) {
    case MsgType::kLogBatch: {
      w.put_varint(m.records.size());
      for (const log::Record& r : m.records) log::encode_record(r, w);
      break;
    }
    case MsgType::kCommitAck:
      w.put_varint(m.seq);
      break;
    case MsgType::kHeartbeat:
      w.put_u8(static_cast<std::uint8_t>(m.role));
      w.put_varint(m.seq);
      break;
    case MsgType::kJoinRequest:
      w.put_varint(m.have);
      break;
    case MsgType::kSnapshotChunk:
      w.put_varint(m.snapshot_id);
      w.put_u32(m.chunk_index);
      w.put_u32(m.chunk_total);
      w.put_bytes(m.blob);
      break;
    case MsgType::kSnapshotDone:
      w.put_varint(m.seq);
      w.put_varint(m.snapshot_id);
      break;
    case MsgType::kChunkRetry:
      w.put_varint(m.snapshot_id);
      w.put_varint(m.missing.size());
      for (std::uint32_t i : m.missing) w.put_u32(i);
      break;
    case MsgType::kSnapshotInstalled:
      w.put_varint(m.snapshot_id);
      break;
    case MsgType::kJoinComplete:
      w.put_varint(m.snapshot_id);
      w.put_varint(m.seq);
      break;
  }
}

namespace {

Result<Message> decode_from(ByteReader& r) {
  std::uint8_t type = 0;
  if (auto s = r.get_u8(type); !s) return s;
  Message m;
  switch (static_cast<MsgType>(type)) {
    case MsgType::kLogBatch: {
      m.type = MsgType::kLogBatch;
      std::uint64_t n = 0;
      if (auto s = r.get_varint(n); !s) return s;
      m.records.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        log::Record rec;
        log::DecodeResult d = log::decode_record(r, rec);
        if (d.end || !d.status) {
          return Status::error(ErrorCode::kCorruption, "bad batch record");
        }
        m.records.push_back(std::move(rec));
      }
      break;
    }
    case MsgType::kCommitAck:
      m.type = MsgType::kCommitAck;
      if (auto s = r.get_varint(m.seq); !s) return s;
      break;
    case MsgType::kHeartbeat: {
      m.type = MsgType::kHeartbeat;
      std::uint8_t role = 0;
      if (auto s = r.get_u8(role); !s) return s;
      if (role > static_cast<std::uint8_t>(NodeRole::kDown)) {
        return Status::error(ErrorCode::kCorruption, "bad role");
      }
      m.role = static_cast<NodeRole>(role);
      if (auto s = r.get_varint(m.seq); !s) return s;
      break;
    }
    case MsgType::kJoinRequest:
      m.type = MsgType::kJoinRequest;
      if (auto s = r.get_varint(m.have); !s) return s;
      break;
    case MsgType::kSnapshotChunk:
      m.type = MsgType::kSnapshotChunk;
      if (auto s = r.get_varint(m.snapshot_id); !s) return s;
      if (auto s = r.get_u32(m.chunk_index); !s) return s;
      if (auto s = r.get_u32(m.chunk_total); !s) return s;
      if (auto s = r.get_bytes(m.blob); !s) return s;
      break;
    case MsgType::kSnapshotDone:
      m.type = MsgType::kSnapshotDone;
      if (auto s = r.get_varint(m.seq); !s) return s;
      if (auto s = r.get_varint(m.snapshot_id); !s) return s;
      break;
    case MsgType::kChunkRetry: {
      m.type = MsgType::kChunkRetry;
      if (auto s = r.get_varint(m.snapshot_id); !s) return s;
      std::uint64_t n = 0;
      if (auto s = r.get_varint(n); !s) return s;
      if (n > r.remaining()) {  // each index needs >= 1 byte
        return Status::error(ErrorCode::kCorruption, "bad retry count");
      }
      m.missing.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        std::uint32_t idx = 0;
        if (auto s = r.get_u32(idx); !s) return s;
        m.missing.push_back(idx);
      }
      break;
    }
    case MsgType::kSnapshotInstalled:
      m.type = MsgType::kSnapshotInstalled;
      if (auto s = r.get_varint(m.snapshot_id); !s) return s;
      break;
    case MsgType::kJoinComplete:
      m.type = MsgType::kJoinComplete;
      if (auto s = r.get_varint(m.snapshot_id); !s) return s;
      if (auto s = r.get_varint(m.seq); !s) return s;
      break;
    default:
      return Status::error(ErrorCode::kCorruption, "unknown message type");
  }
  if (!r.at_end()) {
    return Status::error(ErrorCode::kCorruption, "trailing message bytes");
  }
  return m;
}

}  // namespace

std::vector<std::byte> encode(const Message& m) {
  ByteWriter w;
  encode_into(m, w);
  return w.take();
}

Result<Message> decode(std::span<const std::byte> frame) {
  ByteReader r(frame);
  return decode_from(r);
}

void encode_framed_into(std::uint64_t epoch, std::uint64_t frame_seq,
                        const Message& m, ByteWriter& w) {
  const std::size_t base = w.size();
  w.put_u32(0);  // crc placeholder
  w.put_u64(epoch);
  w.put_u64(frame_seq);
  encode_into(m, w);
  w.patch_u32(base, crc32c(w.view().subspan(base + 4)));
}

std::vector<std::byte> encode_framed(std::uint64_t epoch,
                                     std::uint64_t frame_seq,
                                     const Message& m) {
  ByteWriter w;
  encode_framed_into(epoch, frame_seq, m, w);
  return w.take();
}

Result<Frame> decode_framed(std::span<const std::byte> frame) {
  ByteReader r(frame);
  std::uint32_t crc = 0;
  if (auto s = r.get_u32(crc); !s) return s;
  if (crc != crc32c(frame.subspan(4))) {
    return Status::error(ErrorCode::kCorruption, "frame crc mismatch");
  }
  Frame f;
  if (auto s = r.get_u64(f.epoch); !s) return s;
  if (auto s = r.get_u64(f.frame_seq); !s) return s;
  auto msg = decode_from(r);
  if (!msg.is_ok()) return msg.status();
  f.msg = std::move(msg).value();
  return f;
}

}  // namespace rodain::repl
