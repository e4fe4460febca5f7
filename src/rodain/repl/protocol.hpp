// Wire protocol between the Primary and Mirror Nodes (paper §2–3).
//
//   kLogBatch      primary -> mirror: redo records as generated; one frame
//                  may carry many transactions (group commit), but never a
//                  partial transaction
//   kCommitAck     mirror -> primary: cumulative — every commit record with
//                  validation seq <= `seq` has arrived (the primary may let
//                  all of those transactions perform their final commit step)
//   kHeartbeat     both directions, watchdog liveness + applied high-water
//   kJoinRequest   recovering node -> serving node: "make me your mirror"
//   kSnapshotChunk serving node -> joiner: checkpoint bytes
//   kSnapshotDone  serving node -> joiner: snapshot boundary seq; the
//                  catch-up through the server's installed low-water
//                  precedes it
//   kChunkRetry    joiner -> serving node: re-send these missing chunks
//   kSnapshotInstalled
//                  joiner -> serving node: serve `snapshot_id` is
//                  installed; ship what committed since and switch to
//                  mirror mode (re-sent until answered)
//   kJoinComplete  serving node -> joiner: serve `snapshot_id` is complete;
//                  the server now waits for this node's acks, and the
//                  joiner is a mirror once it has applied through `seq`
//
// A join is two-phase (DESIGN.md §12): the server keeps committing to its
// own disk while the joiner installs, and switches only on the report.
// Every message travels inside a frame envelope:
//
//   [u32 crc32c(epoch || frame_seq || payload)][u64 epoch][u64 frame_seq][payload]
//
// The crc rejects corrupted frames (the message payload itself carries no
// checksum), the per-endpoint frame_seq lets the receiver suppress
// duplicates and stale reordered frames, and the epoch — monotone across
// endpoint rebuilds within a process — keeps a rebuilt sender from being
// suppressed by the receiver's old anti-replay window.
#pragma once

#include <cstdint>
#include <vector>

#include "rodain/common/serialization.hpp"
#include "rodain/common/status.hpp"
#include "rodain/common/types.hpp"
#include "rodain/log/record.hpp"

namespace rodain::repl {

enum class MsgType : std::uint8_t {
  kLogBatch = 1,
  kCommitAck = 2,
  kHeartbeat = 3,
  kJoinRequest = 4,
  kSnapshotChunk = 5,
  kSnapshotDone = 6,
  kChunkRetry = 7,
  kSnapshotInstalled = 8,
  kJoinComplete = 9,
};

struct Message {
  MsgType type{MsgType::kHeartbeat};

  std::vector<log::Record> records;  ///< kLogBatch
  /// ack seq / snapshot boundary / applied / kJoinComplete's through seq
  ValidationTs seq{0};
  NodeRole role{NodeRole::kDown};    ///< kHeartbeat: sender's role
  ValidationTs have{0};              ///< kJoinRequest: seq already recovered
  std::vector<std::byte> blob;       ///< kSnapshotChunk payload
  std::uint32_t chunk_index{0};      ///< kSnapshotChunk ordinal
  std::uint32_t chunk_total{0};      ///< kSnapshotChunk count
  /// Identifies one snapshot serve (kSnapshotChunk / kSnapshotDone /
  /// kChunkRetry / kSnapshotInstalled / kJoinComplete), so chunks from an
  /// abandoned serve can never be mixed into a later one.
  std::uint64_t snapshot_id{0};
  std::vector<std::uint32_t> missing;  ///< kChunkRetry: chunk indexes

  [[nodiscard]] static Message log_batch(std::vector<log::Record> records);
  [[nodiscard]] static Message commit_ack(ValidationTs seq);
  [[nodiscard]] static Message heartbeat(NodeRole role, ValidationTs applied);
  [[nodiscard]] static Message join_request(ValidationTs have);
  [[nodiscard]] static Message snapshot_chunk(std::uint64_t snapshot_id,
                                              std::uint32_t index,
                                              std::uint32_t total,
                                              std::vector<std::byte> blob);
  [[nodiscard]] static Message snapshot_done(ValidationTs boundary,
                                             std::uint64_t snapshot_id);
  [[nodiscard]] static Message chunk_retry(std::uint64_t snapshot_id,
                                           std::vector<std::uint32_t> missing);
  [[nodiscard]] static Message snapshot_installed(std::uint64_t snapshot_id);
  [[nodiscard]] static Message join_complete(std::uint64_t snapshot_id,
                                             ValidationTs through);
};

[[nodiscard]] std::vector<std::byte> encode(const Message& m);
/// Append `m`'s payload encoding to `w` (no framing) — the buffer-reusing
/// counterpart of encode().
void encode_into(const Message& m, ByteWriter& w);
[[nodiscard]] Result<Message> decode(std::span<const std::byte> frame);

/// A message plus its envelope fields, as received.
struct Frame {
  std::uint64_t epoch{0};
  std::uint64_t frame_seq{0};
  Message msg;
};

[[nodiscard]] std::vector<std::byte> encode_framed(std::uint64_t epoch,
                                                   std::uint64_t frame_seq,
                                                   const Message& m);
/// Append one complete frame (crc/epoch/frame_seq envelope + payload) to
/// `w`. The endpoint clears and reuses one ByteWriter across sends so the
/// steady-state ship path stops allocating a fresh buffer per frame.
void encode_framed_into(std::uint64_t epoch, std::uint64_t frame_seq,
                        const Message& m, ByteWriter& w);
[[nodiscard]] Result<Frame> decode_framed(std::span<const std::byte> frame);

}  // namespace rodain::repl
