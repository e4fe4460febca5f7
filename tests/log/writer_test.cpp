#include "rodain/log/writer.hpp"

#include <gtest/gtest.h>

#include "rodain/obs/obs.hpp"

namespace rodain::log {
namespace {

storage::Value val(std::string_view s) { return storage::Value{s}; }

std::vector<Record> txn_records(TxnId txn, ValidationTs seq) {
  std::vector<Record> records;
  records.push_back(Record::write_image(txn, 100 + txn, val("v")));
  records.push_back(Record::commit(txn, seq, seq * 1000, 1));
  return records;
}

struct CapturingShipper final : Shipper {
  std::vector<Record> shipped;
  void ship(std::span<const Record> records) override {
    shipped.insert(shipped.end(), records.begin(), records.end());
  }
};

TEST(LogWriter, OffModeAcksImmediately) {
  LogWriter writer(LogMode::kOff, nullptr, nullptr);
  bool durable = false;
  writer.submit(1, txn_records(1, 1), [&] { durable = true; });
  EXPECT_TRUE(durable);
  EXPECT_EQ(writer.counters().via_none, 1u);
}

TEST(LogWriter, DirectDiskWaitsForFlush) {
  MemoryLogStorage disk;
  LogWriter writer(LogMode::kDirectDisk, &disk, nullptr);
  bool durable = false;
  writer.submit(1, txn_records(1, 1), [&] { durable = true; });
  EXPECT_TRUE(durable);  // memory flush completes inline
  EXPECT_EQ(disk.records().size(), 2u);
  EXPECT_EQ(writer.counters().via_disk, 1u);
}

TEST(LogWriter, MirrorModeWaitsForAck) {
  CapturingShipper shipper;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  bool durable = false;
  writer.submit(5, txn_records(9, 5), [&] { durable = true; });
  EXPECT_FALSE(durable);
  EXPECT_EQ(shipper.shipped.size(), 2u);
  EXPECT_EQ(writer.pending_acks(), 1u);

  writer.on_mirror_ack(5);
  EXPECT_TRUE(durable);
  EXPECT_EQ(writer.pending_acks(), 0u);
}

TEST(LogWriter, DuplicateAndUnknownAcksIgnored) {
  CapturingShipper shipper;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  int acks = 0;
  writer.submit(5, txn_records(9, 5), [&] { ++acks; });
  writer.on_mirror_ack(4);  // unknown
  writer.on_mirror_ack(5);
  writer.on_mirror_ack(5);  // duplicate
  EXPECT_EQ(acks, 1);
}

TEST(LogWriter, MirrorLostReroutesPendingToDisk) {
  CapturingShipper shipper;
  MemoryLogStorage disk;
  LogWriter writer(LogMode::kMirror, &disk, &shipper);
  int durable = 0;
  writer.submit(1, txn_records(1, 1), [&] { ++durable; });
  writer.submit(2, txn_records(2, 2), [&] { ++durable; });
  EXPECT_EQ(durable, 0);

  writer.on_mirror_lost();
  // Both pending transactions completed through the local disk instead.
  EXPECT_EQ(durable, 2);
  EXPECT_EQ(writer.mode(), LogMode::kDirectDisk);
  EXPECT_EQ(disk.records().size(), 4u);
  EXPECT_EQ(writer.counters().rerouted, 2u);
  // Late ack from the dead mirror: harmless.
  writer.on_mirror_ack(1);
  EXPECT_EQ(durable, 2);
}

TEST(LogWriter, ModeSwitchAffectsNewSubmissions) {
  CapturingShipper shipper;
  MemoryLogStorage disk;
  LogWriter writer(LogMode::kDirectDisk, &disk, &shipper);
  writer.submit(1, txn_records(1, 1), {});
  EXPECT_EQ(disk.records().size(), 2u);
  writer.set_mode(LogMode::kMirror);
  writer.submit(2, txn_records(2, 2), {});
  EXPECT_EQ(shipper.shipped.size(), 2u);
  EXPECT_EQ(disk.records().size(), 2u);  // unchanged
}

TEST(LogWriter, AckTimeoutFiresForOldestUnacked) {
  CapturingShipper shipper;
  MemoryLogStorage disk;
  ManualClock clock;
  LogWriter writer(LogMode::kMirror, &disk, &shipper);
  int timeouts = 0;
  writer.configure_ack_timeout(&clock, Duration::millis(100),
                               [&] { ++timeouts; });

  writer.submit(1, txn_records(1, 1), {});
  clock.advance(Duration::millis(50));
  EXPECT_FALSE(writer.check_ack_timeouts());
  EXPECT_EQ(timeouts, 0);

  clock.advance(Duration::millis(51));  // oldest shipment now 101 ms old
  EXPECT_TRUE(writer.check_ack_timeouts());
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(writer.counters().ack_timeouts, 1u);
}

TEST(LogWriter, AckInTimeDisarmsTimeout) {
  CapturingShipper shipper;
  ManualClock clock;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  int timeouts = 0;
  writer.configure_ack_timeout(&clock, Duration::millis(100),
                               [&] { ++timeouts; });
  writer.submit(1, txn_records(1, 1), {});
  writer.on_mirror_ack(1);
  clock.advance(Duration::seconds(10));
  EXPECT_FALSE(writer.check_ack_timeouts());
  EXPECT_EQ(timeouts, 0);
}

TEST(LogWriter, ResendRestampsAckTimeout) {
  // Regression: resend_pending() used to leave Pending::shipped_at at the
  // original shipment time, so check_ack_timeouts() re-fired immediately
  // after a reconnect. A resend restarts the window for the new attempt.
  CapturingShipper shipper;
  MemoryLogStorage disk;
  ManualClock clock;
  LogWriter writer(LogMode::kMirror, &disk, &shipper);
  int timeouts = 0;
  writer.configure_ack_timeout(&clock, Duration::millis(100),
                               [&] { ++timeouts; });
  writer.submit(1, txn_records(1, 1), {});
  clock.advance(Duration::millis(60));
  EXPECT_EQ(writer.resend_pending(), 1u);
  clock.advance(Duration::millis(60));  // 120 ms overall, 60 ms since resend
  EXPECT_FALSE(writer.check_ack_timeouts());
  EXPECT_EQ(timeouts, 0);
  clock.advance(Duration::millis(41));  // 101 ms since the resend
  EXPECT_TRUE(writer.check_ack_timeouts());
  EXPECT_EQ(timeouts, 1);
}

TEST(LogWriter, ResendRestampsObsShipTimeUnconditionally) {
  // Regression: resend_pending() only restamped Pending::shipped_at_us when
  // it was already non-zero, so a transaction submitted while obs was off
  // and resent after obs came up kept its zero stamp — its replication-RTT
  // sample was skipped forever on ack. The resend anchors both the
  // ack-timeout clock and the obs stamp at the new attempt.
  CapturingShipper shipper;
  ManualClock clock;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  writer.configure_ack_timeout(&clock, Duration::seconds(10), {});
  writer.submit(1, txn_records(1, 1), {});  // obs off: shipped_at_us == 0

  obs::ObsConfig obs_config;
  obs_config.enabled = true;
  obs::init(obs_config);
  const std::size_t rtt_before =
      obs::metrics().timer("repl.commit_rtt_us").merged().count();
  EXPECT_EQ(writer.resend_pending(), 1u);
  writer.on_mirror_ack(1);
  EXPECT_EQ(obs::metrics().timer("repl.commit_rtt_us").merged().count(),
            rtt_before + 1);
}

TEST(LogWriter, ResendPendingReshipsInSeqOrderAsOneBatch) {
  CapturingShipper shipper;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  writer.submit(1, txn_records(1, 1), {});
  writer.submit(2, txn_records(2, 2), {});
  writer.submit(3, txn_records(3, 3), {});
  writer.on_mirror_ack(1);
  shipper.shipped.clear();
  const std::uint64_t frames_before = writer.counters().batches_shipped;

  // Txns 2 and 3 go out again as one combined frame, in validation order.
  EXPECT_EQ(writer.resend_pending(), 2u);
  ASSERT_EQ(shipper.shipped.size(), 4u);
  EXPECT_EQ(shipper.shipped[1].seq, 2u);
  EXPECT_EQ(shipper.shipped[3].seq, 3u);
  EXPECT_EQ(writer.counters().resent, 2u);
  EXPECT_EQ(writer.counters().batches_shipped, frames_before + 1);

  // Acked transactions are gone; the cumulative ack clears the rest.
  writer.on_mirror_ack(3);
  EXPECT_EQ(writer.resend_pending(), 0u);
}

TEST(LogWriter, ResendIsNoOpOutsideMirrorMode) {
  CapturingShipper shipper;
  MemoryLogStorage disk;
  LogWriter writer(LogMode::kMirror, &disk, &shipper);
  writer.submit(1, txn_records(1, 1), {});
  writer.on_mirror_lost();
  shipper.shipped.clear();
  EXPECT_EQ(writer.resend_pending(), 0u);
  EXPECT_TRUE(shipper.shipped.empty());
}

TEST(LogWriter, MirrorLostWithInFlightUnackedCompletesEveryCommitter) {
  // The satellite case: ack timeout escalates to on_mirror_lost while
  // several transactions sit unacked; all must become durable via disk, in
  // order, exactly once.
  CapturingShipper shipper;
  MemoryLogStorage disk;
  ManualClock clock;
  LogWriter writer(LogMode::kMirror, &disk, &shipper);
  writer.configure_ack_timeout(&clock, Duration::millis(100),
                               [&] { writer.on_mirror_lost(); });

  std::vector<ValidationTs> durable_order;
  for (ValidationTs seq = 1; seq <= 3; ++seq) {
    writer.submit(seq, txn_records(seq, seq),
                  [&durable_order, seq] { durable_order.push_back(seq); });
  }
  writer.on_mirror_ack(1);
  EXPECT_EQ(writer.pending_acks(), 2u);

  clock.advance(Duration::millis(101));
  EXPECT_TRUE(writer.check_ack_timeouts());
  EXPECT_EQ(durable_order, (std::vector<ValidationTs>{1, 2, 3}));
  EXPECT_EQ(writer.mode(), LogMode::kDirectDisk);
  EXPECT_EQ(writer.pending_acks(), 0u);
  EXPECT_EQ(writer.counters().rerouted, 2u);
  EXPECT_EQ(disk.records().size(), 4u);  // txns 2 and 3 rerouted
  // The stale mirror ack arriving later is harmless.
  writer.on_mirror_ack(2);
  EXPECT_EQ(durable_order.size(), 3u);
}

TEST(LogWriter, TailSinceServesCatchUp) {
  LogWriter writer(LogMode::kOff, nullptr, nullptr);
  for (ValidationTs seq = 1; seq <= 10; ++seq) {
    writer.submit(seq, txn_records(seq, seq), {});
  }
  auto tail = writer.tail_since(7);
  // Transactions 8, 9, 10: two records each.
  ASSERT_EQ(tail.size(), 6u);
  EXPECT_EQ(tail[1].seq, 8u);
  EXPECT_EQ(tail[5].seq, 10u);
  EXPECT_TRUE(writer.tail_since(10).empty());
  // Everything retained from seq 0.
  EXPECT_EQ(writer.tail_since(0).size(), 20u);
}

TEST(LogWriter, TailRetentionIsBounded) {
  LogWriter writer(LogMode::kOff, nullptr, nullptr);
  const ValidationTs total = LogWriter::kTailRetention + 100;
  for (ValidationTs seq = 1; seq <= total; ++seq) {
    writer.submit(seq, txn_records(seq, seq), {});
  }
  auto all = writer.tail_since(0);
  EXPECT_EQ(all.size(), LogWriter::kTailRetention * 2);
  ASSERT_TRUE(all[1].is_commit());
  EXPECT_EQ(all[1].seq, 101u);  // oldest 100 evicted
}

TEST(LogWriter, TailPinOutlivesRetentionUpToItsBound) {
  LogWriter writer(LogMode::kOff, nullptr, nullptr);
  ValidationTs seq = 0;
  auto submit_upto = [&](ValidationTs last) {
    while (seq < last) {
      ++seq;
      writer.submit(seq, txn_records(seq, seq), {});
    }
  };
  submit_upto(10);
  writer.pin_tail(5);
  // Past the retention, only entries at or below the pin are evicted.
  submit_upto(LogWriter::kTailRetention + 100);
  auto pinned = writer.tail_since(5);
  EXPECT_EQ(pinned.size(), 2 * (LogWriter::kTailRetention + 95));
  EXPECT_EQ(pinned[1].seq, 6u);
  EXPECT_TRUE(writer.tail_since(0)[1].seq == 6u);  // 1..5 evicted
  // Unpinning trims back to the retention.
  writer.unpin_tail();
  EXPECT_EQ(writer.tail_since(0).size(), 2 * LogWriter::kTailRetention);
  // A pin the tail would outgrow is dropped at the bound.
  writer.pin_tail(seq);
  submit_upto(seq + LogWriter::kMaxPinnedTail + 1);
  EXPECT_FALSE(writer.tail_pin().has_value());
  EXPECT_EQ(writer.tail_since(0).size(), 2 * LogWriter::kTailRetention);
}

TEST(LogWriter, SynchronousLoopbackAckFindsPendingEntry) {
  // Regression: submit() used to ship before registering pending_, so a
  // shipper that acks synchronously (loopback transport) found an empty map
  // and the durable callback was lost forever.
  struct LoopbackShipper final : Shipper {
    LogWriter* writer{nullptr};
    void ship(std::span<const Record> records) override {
      ValidationTs top = 0;
      for (const Record& r : records) {
        if (r.is_commit() && r.seq > top) top = r.seq;
      }
      if (writer != nullptr && top != 0) writer->on_mirror_ack(top);
    }
  };
  LoopbackShipper shipper;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  shipper.writer = &writer;
  bool durable = false;
  writer.submit(1, txn_records(1, 1), [&] { durable = true; });
  EXPECT_TRUE(durable);
  EXPECT_EQ(writer.pending_acks(), 0u);
}

TEST(LogWriter, CumulativeAckReleasesInSeqOrder) {
  CapturingShipper shipper;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  std::vector<ValidationTs> durable_order;
  for (ValidationTs seq = 1; seq <= 4; ++seq) {
    writer.submit(seq, txn_records(seq, seq),
                  [&durable_order, seq] { durable_order.push_back(seq); });
  }
  writer.on_mirror_ack(3);
  EXPECT_EQ(durable_order, (std::vector<ValidationTs>{1, 2, 3}));
  EXPECT_EQ(writer.pending_acks(), 1u);
  EXPECT_EQ(writer.counters().acks_received, 1u);
  EXPECT_EQ(writer.counters().ack_released_txns, 3u);
  writer.on_mirror_ack(4);
  EXPECT_EQ(durable_order, (std::vector<ValidationTs>{1, 2, 3, 4}));
  EXPECT_EQ(writer.pending_acks(), 0u);
}

TEST(LogWriter, BatchDrainsAtTxnThreshold) {
  CapturingShipper shipper;
  ManualClock clock;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  LogWriter::BatchOptions opts;
  opts.max_txns = 3;
  writer.configure_batching(&clock, opts);

  writer.submit(1, txn_records(1, 1), {});
  writer.submit(2, txn_records(2, 2), {});
  EXPECT_TRUE(shipper.shipped.empty());
  EXPECT_EQ(writer.batched_txns(), 2u);

  writer.submit(3, txn_records(3, 3), {});
  EXPECT_EQ(shipper.shipped.size(), 6u);  // three txns, two records each
  EXPECT_EQ(writer.batched_txns(), 0u);
  EXPECT_EQ(writer.counters().batches_shipped, 1u);
  EXPECT_EQ(writer.counters().batch_txns_shipped, 3u);
  EXPECT_EQ(writer.counters().batch_fill_txns, 1u);
}

TEST(LogWriter, BatchDrainsAtByteThreshold) {
  CapturingShipper shipper;
  ManualClock clock;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  std::size_t one_txn_bytes = 0;
  for (const Record& r : txn_records(1, 1)) one_txn_bytes += r.encoded_size();
  LogWriter::BatchOptions opts;
  opts.max_txns = 100;
  opts.max_bytes = one_txn_bytes + 1;  // one txn fits, two overflow
  writer.configure_batching(&clock, opts);

  writer.submit(1, txn_records(1, 1), {});
  EXPECT_TRUE(shipper.shipped.empty());
  writer.submit(2, txn_records(2, 2), {});
  EXPECT_EQ(shipper.shipped.size(), 4u);
  EXPECT_EQ(writer.counters().batch_fill_bytes, 1u);
  EXPECT_EQ(writer.counters().batch_bytes_shipped, 2 * one_txn_bytes);
}

TEST(LogWriter, DelayWindowFlushesViaScheduler) {
  CapturingShipper shipper;
  ManualClock clock;
  std::vector<Duration> scheduled;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  LogWriter::BatchOptions opts;
  opts.max_txns = 100;
  opts.max_delay = Duration::millis(5);
  writer.configure_batching(&clock, opts,
                            [&](Duration d) { scheduled.push_back(d); });

  writer.submit(1, txn_records(1, 1), {});
  ASSERT_EQ(scheduled.size(), 1u);  // first txn of the batch opens the window
  EXPECT_EQ(scheduled[0].us, 5000);
  writer.submit(2, txn_records(2, 2), {});
  EXPECT_EQ(scheduled.size(), 1u);  // later txns ride the same window
  EXPECT_TRUE(shipper.shipped.empty());

  clock.advance(Duration::millis(5));
  writer.flush_batch();
  EXPECT_EQ(shipper.shipped.size(), 4u);
  EXPECT_EQ(writer.counters().batch_fill_delay, 1u);
}

TEST(LogWriter, StaleFlushTimerRearmsForYoungerBatch) {
  // A timer armed for batch N may fire after N already drained on a
  // threshold; it must not ship batch N+1 early, only re-arm its remainder.
  CapturingShipper shipper;
  ManualClock clock;
  std::vector<Duration> scheduled;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  LogWriter::BatchOptions opts;
  opts.max_txns = 2;
  opts.max_delay = Duration::millis(5);
  writer.configure_batching(&clock, opts,
                            [&](Duration d) { scheduled.push_back(d); });

  writer.submit(1, txn_records(1, 1), {});  // t=0: timer armed for t=5ms
  clock.advance(Duration::millis(1));
  writer.submit(2, txn_records(2, 2), {});  // threshold drains batch 1
  EXPECT_EQ(shipper.shipped.size(), 4u);
  clock.advance(Duration::millis(1));
  writer.submit(3, txn_records(3, 3), {});  // t=2ms: batch 2 deadline t=7ms
  ASSERT_EQ(scheduled.size(), 2u);

  clock.advance(Duration::millis(3));  // t=5ms: batch 1's stale timer fires
  writer.flush_batch();
  EXPECT_EQ(shipper.shipped.size(), 4u);  // batch 2 not shipped early
  ASSERT_EQ(scheduled.size(), 3u);
  EXPECT_EQ(scheduled[2].us, 2000);  // re-armed for the remaining window

  clock.advance(Duration::millis(2));  // t=7ms: batch 2's own deadline
  writer.flush_batch();
  EXPECT_EQ(shipper.shipped.size(), 6u);
  EXPECT_EQ(writer.counters().batch_fill_txns, 1u);
  EXPECT_EQ(writer.counters().batch_fill_delay, 1u);
}

TEST(LogWriter, ExplicitFlushDrainsPartialBatch) {
  CapturingShipper shipper;
  ManualClock clock;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  LogWriter::BatchOptions opts;
  opts.max_txns = 100;
  writer.configure_batching(&clock, opts);

  writer.submit(1, txn_records(1, 1), {});
  writer.submit(2, txn_records(2, 2), {});
  EXPECT_EQ(writer.batched_txns(), 2u);
  writer.flush_batch();
  EXPECT_EQ(shipper.shipped.size(), 4u);
  EXPECT_EQ(writer.counters().batch_fill_forced, 1u);
  writer.flush_batch();  // empty buffer: no-op
  EXPECT_EQ(writer.counters().batches_shipped, 1u);
}

TEST(LogWriter, MirrorLostReroutesBufferedBatchToDisk) {
  // Buffered-but-unshipped txns are registered in pending_, so the mirror
  // loss path must complete them via disk without ever shipping the batch.
  CapturingShipper shipper;
  MemoryLogStorage disk;
  ManualClock clock;
  LogWriter writer(LogMode::kMirror, &disk, &shipper);
  LogWriter::BatchOptions opts;
  opts.max_txns = 100;
  writer.configure_batching(&clock, opts);

  int durable = 0;
  writer.submit(1, txn_records(1, 1), [&] { ++durable; });
  writer.submit(2, txn_records(2, 2), [&] { ++durable; });
  EXPECT_TRUE(shipper.shipped.empty());

  writer.on_mirror_lost();
  EXPECT_EQ(durable, 2);
  EXPECT_TRUE(shipper.shipped.empty());
  EXPECT_EQ(writer.batched_txns(), 0u);
  EXPECT_EQ(disk.records().size(), 4u);
  EXPECT_EQ(writer.counters().rerouted, 2u);
}

TEST(LogWriter, AdaptiveDelayTracksLoad) {
  CapturingShipper shipper;
  ManualClock clock;
  LogWriter writer(LogMode::kMirror, nullptr, &shipper);
  LogWriter::BatchOptions opts;
  opts.max_txns = 4;
  opts.max_delay = Duration::millis(8);
  opts.adaptive_delay = true;
  writer.configure_batching(&clock, opts);
  EXPECT_EQ(writer.current_flush_delay().us, 8000);

  // A delay-filled batch under half full halves the window.
  writer.submit(1, txn_records(1, 1), {});
  clock.advance(Duration::millis(8));
  writer.flush_batch();
  EXPECT_EQ(writer.counters().batch_fill_delay, 1u);
  EXPECT_EQ(writer.current_flush_delay().us, 4000);

  // A threshold-filled batch doubles it back toward max_delay.
  for (ValidationTs seq = 2; seq <= 5; ++seq) {
    writer.submit(seq, txn_records(seq, seq), {});
  }
  EXPECT_EQ(writer.counters().batch_fill_txns, 1u);
  EXPECT_EQ(writer.current_flush_delay().us, 8000);
}

}  // namespace
}  // namespace rodain::log
