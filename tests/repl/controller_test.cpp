// Unit tests of repl::ReplicaController against a stub driver, a manual
// clock and a scripted peer channel: due times, escalations, takeover,
// the takeover latch, the split-brain rule and what a demotion discards.
#include "rodain/repl/controller.hpp"

#include <gtest/gtest.h>

#include "rodain/obs/obs.hpp"
#include "rodain/storage/fuzzy_checkpoint.hpp"

namespace rodain::repl {
namespace {

using namespace rodain::literals;

/// The peer end of the link: records what the controller sends and
/// injects frames as a peer endpoint with epoch `epoch` would.
class ScriptedPeer final : public net::Channel {
 public:
  void set_message_handler(MessageHandler handler) override {
    deliver_ = std::move(handler);
  }
  void set_disconnect_handler(DisconnectHandler handler) override {
    disconnect_ = std::move(handler);
  }
  Status send(std::vector<std::byte> frame) override {
    if (!up_) return Status::error(ErrorCode::kUnavailable, "down");
    auto f = decode_framed(frame);
    if (f.is_ok()) sent.push_back(std::move(f.value().msg));
    return Status::ok();
  }
  [[nodiscard]] bool connected() const override { return up_; }
  void close() override { up_ = false; }

  void inject(const Message& m) {
    deliver_(encode_framed(epoch, next_seq_++, m));
  }
  void drop() {
    up_ = false;
    disconnect_();
  }
  [[nodiscard]] std::size_t count(MsgType type) const {
    std::size_t n = 0;
    for (const Message& m : sent) n += m.type == type ? 1 : 0;
    return n;
  }

  std::uint64_t epoch{1};
  std::vector<Message> sent;

 private:
  MessageHandler deliver_;
  DisconnectHandler disconnect_;
  bool up_{true};
  std::uint64_t next_seq_{1};
};

class StubDriver final : public ReplicaController::Driver {
 public:
  void on_role(NodeRole role) override { roles.push_back(role); }
  void build_engine(log::LogWriter&, ValidationTs next_seq) override {
    ++engines_built;
    engine_seq = next_seq;
  }
  void drop_engine() override { ++engines_dropped; }
  void wake_at(TimePoint at) override { wakes.push_back(at); }
  void schedule_flush(Duration) override {}
  Status write_checkpoint(ValidationTs) override { return Status::ok(); }
  std::optional<JoinArtifacts> join_artifacts() override {
    return std::nullopt;
  }
  [[nodiscard]] ValidationTs commit_height() const override { return height; }

  std::vector<NodeRole> roles;
  std::vector<TimePoint> wakes;
  int engines_built{0};
  int engines_dropped{0};
  ValidationTs engine_seq{0};
  ValidationTs height{0};
};

struct Rig {
  ManualClock clock;
  storage::ObjectStore store{16};
  storage::BPlusTree index;
  log::MemoryLogStorage disk;
  StubDriver driver;
  ScriptedPeer peer;
  std::unique_ptr<ReplicaController> controller;
  TimePoint t0;

  explicit Rig(ReplicaController::Config config) {
    // Endpoint epochs embed the clock; start well past zero.
    clock.set(TimePoint::origin() + 1_s);
    t0 = clock.now();
    controller = std::make_unique<ReplicaController>(
        config, clock, store, index, &disk, driver, "test");
    controller->set_channel(&peer);
  }

  /// Ship one transaction through the controller's writer.
  bool* ship(ValidationTs seq) {
    auto durable = std::make_unique<bool>(false);
    bool* flag = durable.get();
    durable_.push_back(std::move(durable));
    std::vector<log::Record> records;
    records.push_back(log::Record::write_image(
        seq, 1, storage::Value{std::string_view{"v"}}));
    records.push_back(log::Record::commit(seq, seq, seq, 1));
    controller->writer()->submit(seq, std::move(records),
                                 [flag] { *flag = true; });
    return flag;
  }

  /// Tick at `t`; returns the next due time.
  TimePoint tick_at(TimePoint t) {
    clock.set(t);
    return controller->tick(t);
  }

 private:
  std::vector<std::unique_ptr<bool>> durable_;
};

ReplicaController::Config config(Duration beat, Duration watchdog) {
  ReplicaController::Config c;
  c.heartbeat_interval = beat;
  c.watchdog_timeout = watchdog;
  c.ack_timeout = Duration::zero();
  c.store_to_disk = false;
  return c;
}

constexpr Duration kTick = Duration::micros(1);

TEST(ReplicaController, DueIsTheEarliestOfBeatWatchdogGraceAndAck) {
  // The beat is the earliest.
  {
    Rig rig(config(100_ms, 300_ms));
    rig.controller->start_primary(LogMode::kMirror, 1);
    EXPECT_EQ(rig.tick_at(rig.t0), rig.t0 + 100_ms);
  }
  // The watchdog on the mirror is the earliest: strict, one tick past.
  auto c = config(1_s, 300_ms);
  c.ack_timeout = 20_ms;
  c.disconnect_grace = 50_ms;
  Rig rig(c);
  rig.controller->start_primary(LogMode::kMirror, 1);
  EXPECT_EQ(rig.tick_at(rig.t0), rig.t0 + 300_ms + kTick);
  // The first unacked shipment asks for a wake at its ack deadline.
  rig.ship(1);
  ASSERT_FALSE(rig.driver.wakes.empty());
  EXPECT_EQ(rig.driver.wakes.back(), rig.t0 + 20_ms + kTick);
  EXPECT_EQ(rig.tick_at(rig.t0), rig.t0 + 20_ms + kTick);
  // Acked: a link drop's grace end is the earliest, and asks for a wake.
  rig.clock.set(rig.t0 + 5_ms);
  rig.peer.inject(Message::commit_ack(1));
  rig.peer.drop();
  EXPECT_EQ(rig.driver.wakes.back(), rig.t0 + 55_ms + kTick);
  EXPECT_EQ(rig.tick_at(rig.t0 + 5_ms), rig.t0 + 55_ms + kTick);
  EXPECT_EQ(rig.controller->role(), NodeRole::kPrimaryWithMirror);
}

TEST(ReplicaController, EscalationsFireAtTheirDueTime) {
  // Ack timeout: the shipment is rerouted to disk and the commit is
  // durable there.
  {
    auto c = config(1_s, 10_s);
    c.ack_timeout = 20_ms;
    Rig rig(c);
    rig.controller->start_primary(LogMode::kMirror, 1);
    bool* durable = rig.ship(1);
    const TimePoint due = rig.tick_at(rig.t0);
    EXPECT_EQ(rig.tick_at(due - kTick), due);
    EXPECT_EQ(rig.controller->role(), NodeRole::kPrimaryWithMirror);
    rig.tick_at(due);
    EXPECT_EQ(rig.controller->role(), NodeRole::kPrimaryAlone);
    EXPECT_EQ(rig.controller->writer()->mode(), LogMode::kDirectDisk);
    EXPECT_TRUE(*durable);
  }
  // Disconnect grace.
  {
    auto c = config(1_s, 10_s);
    c.disconnect_grace = 50_ms;
    Rig rig(c);
    rig.controller->start_primary(LogMode::kMirror, 1);
    rig.peer.drop();
    const TimePoint due = rig.t0 + 50_ms + kTick;
    EXPECT_EQ(rig.tick_at(due - kTick), due);
    EXPECT_EQ(rig.controller->role(), NodeRole::kPrimaryWithMirror);
    rig.tick_at(due);
    EXPECT_EQ(rig.controller->role(), NodeRole::kPrimaryAlone);
  }
  // The primary's watchdog on a silent mirror.
  {
    Rig rig(config(1_s, 300_ms));
    rig.controller->start_primary(LogMode::kMirror, 1);
    const TimePoint due = rig.t0 + 300_ms + kTick;
    EXPECT_EQ(rig.tick_at(due - kTick), due);
    EXPECT_EQ(rig.controller->role(), NodeRole::kPrimaryWithMirror);
    rig.tick_at(due);
    EXPECT_EQ(rig.controller->role(), NodeRole::kPrimaryAlone);
  }
  // A join request: the mirror is lost at once.
  {
    Rig rig(config(1_s, 10_s));
    rig.controller->start_primary(LogMode::kMirror, 1);
    rig.peer.inject(Message::join_request(0));
    EXPECT_EQ(rig.controller->role(), NodeRole::kPrimaryAlone);
  }
}

TEST(ReplicaController, MirrorTakesOverAtWatchdogPlusActivation) {
  auto c = config(100_ms, 300_ms);
  c.takeover_activation = 1_ms;
  Rig rig(c);
  rig.controller->start_mirror(7);
  rig.clock.set(rig.t0 + 10_ms);
  rig.peer.inject(Message::heartbeat(NodeRole::kPrimaryWithMirror, 6));
  const TimePoint expiry = rig.t0 + 310_ms + kTick;
  EXPECT_EQ(rig.tick_at(rig.t0 + 10_ms), rig.t0 + 100_ms);
  EXPECT_EQ(rig.tick_at(rig.t0 + 300_ms), expiry);
  EXPECT_EQ(rig.controller->role(), NodeRole::kMirror);
  // Detected at the expiry; the takeover is due one activation later.
  EXPECT_EQ(rig.tick_at(expiry), expiry + 1_ms);
  EXPECT_EQ(rig.controller->role(), NodeRole::kMirror);
  EXPECT_EQ(rig.driver.engines_built, 0);
  rig.tick_at(expiry + 1_ms);
  EXPECT_EQ(rig.controller->role(), NodeRole::kPrimaryAlone);
  EXPECT_EQ(rig.driver.engines_built, 1);
  EXPECT_EQ(rig.driver.engine_seq, 7u);
  EXPECT_EQ(rig.controller->writer()->mode(), LogMode::kDirectDisk);
  // The survivor keeps the channel: its beats go out on it.
  rig.peer.sent.clear();
  rig.tick_at(expiry + 1_s);
  ASSERT_EQ(rig.peer.count(MsgType::kHeartbeat), 1u);
  EXPECT_EQ(rig.peer.sent.back().role, NodeRole::kPrimaryAlone);
}

TEST(ReplicaController, TakeoverRacingARejoinClearsItsLatch) {
  auto c = config(100_ms, 300_ms);
  c.takeover_activation = 10_ms;
  Rig rig(c);
  rig.controller->start_mirror(1);
  const TimePoint expiry = rig.t0 + 300_ms + kTick;
  EXPECT_EQ(rig.tick_at(expiry), expiry + 10_ms);  // takeover pending
  // Before the activation runs out, the primary turns out to serve alone:
  // the mirror was abandoned and rejoins.
  rig.clock.set(expiry + 5_ms);
  rig.peer.inject(Message::heartbeat(NodeRole::kPrimaryAlone, 0));
  ASSERT_EQ(rig.controller->role(), NodeRole::kRecovering);
  rig.tick_at(expiry + 10_ms);
  EXPECT_EQ(rig.controller->role(), NodeRole::kRecovering);
  EXPECT_EQ(rig.driver.engines_built, 0);

  // The join completes, then the primary dies for real: the watchdog is
  // armed again and the takeover happens.
  ASSERT_EQ(rig.peer.count(MsgType::kJoinRequest), 1u);
  const std::uint64_t serve =
      static_cast<std::uint64_t>(rig.clock.now().us + 1) << 16;
  storage::ObjectStore empty{1};
  rig.peer.inject(Message::snapshot_chunk(
      serve, 0, 1, storage::encode_live_chain(empty, nullptr, 0)));
  rig.peer.inject(Message::snapshot_done(0, serve));
  ASSERT_EQ(rig.peer.count(MsgType::kSnapshotInstalled), 1u);
  rig.peer.inject(Message::join_complete(serve, 0));
  ASSERT_EQ(rig.controller->role(), NodeRole::kMirror);
  const TimePoint heard = rig.clock.now();
  EXPECT_EQ(rig.tick_at(heard), expiry + 100_ms);  // the next beat
  rig.tick_at(heard + 300_ms + kTick);
  rig.tick_at(heard + 310_ms + kTick);
  EXPECT_EQ(rig.controller->role(), NodeRole::kPrimaryAlone);
  EXPECT_EQ(rig.driver.engines_built, 1);
}

/// A serving node at height 10 hears a peer primary at `peer_height`,
/// from an endpoint older (-1) or younger (+1) than its own.
bool demotes(ValidationTs peer_height, int peer_age) {
  Rig rig(config(100_ms, 300_ms));
  rig.driver.height = 10;
  rig.controller->start_primary(LogMode::kDirectDisk, 11);
  const std::uint64_t ours = rig.controller->replicator()->endpoint_epoch();
  rig.peer.epoch = peer_age < 0 ? ours - 1 : ours + 1;
  rig.peer.inject(Message::heartbeat(NodeRole::kPrimaryAlone, peer_height));
  // The handler only decides: the replicator it runs in survives it.
  EXPECT_TRUE(rig.controller->serving());
  EXPECT_EQ(rig.driver.engines_dropped, 0);
  if (!rig.controller->demotion_pending()) {
    rig.tick_at(rig.t0 + 1_ms);
    EXPECT_TRUE(rig.controller->serving());
    return false;
  }
  EXPECT_EQ(rig.driver.wakes.back(), rig.t0);
  rig.tick_at(rig.t0 + 1_ms);
  EXPECT_EQ(rig.driver.engines_dropped, 1);
  EXPECT_EQ(rig.controller->role(), NodeRole::kRecovering);
  EXPECT_EQ(rig.controller->replicator(), nullptr);
  EXPECT_NE(rig.controller->mirror(), nullptr);
  EXPECT_EQ(rig.peer.count(MsgType::kJoinRequest), 1u);
  return true;
}

TEST(ReplicaController, SplitBrainKeepsTheHigherHeightThenTheOlderEndpoint) {
  EXPECT_FALSE(demotes(5, +1));
  EXPECT_FALSE(demotes(5, -1));
  EXPECT_TRUE(demotes(15, +1));
  EXPECT_TRUE(demotes(15, -1));
  EXPECT_FALSE(demotes(10, +1));  // tie: ours is the older endpoint
  EXPECT_TRUE(demotes(10, -1));   // tie: the peer's is older
}

/// Demotes a serving node at `height` through a peer primary ahead of it;
/// returns the commits the demotion counted as discarded.
std::uint64_t discarded_on_demotion(Rig& rig, ValidationTs height) {
  obs::ObsConfig obs_config;
  obs_config.enabled = true;
  obs::init(obs_config);
  const obs::Counter& discarded =
      obs::metrics().counter("node.split_brain_discarded_txns");
  const std::uint64_t before = discarded.value();
  rig.driver.height = height;
  rig.peer.inject(Message::heartbeat(NodeRole::kPrimaryAlone, height + 100));
  EXPECT_TRUE(rig.controller->demotion_pending());
  rig.tick_at(rig.clock.now() + 1_ms);
  EXPECT_EQ(rig.controller->role(), NodeRole::kRecovering);
  return discarded.value() - before;
}

TEST(ReplicaController, DemotionCountsTheCommitsMadeAlone) {
  // Started alone at height 10: the seven commits above it are lost.
  {
    Rig rig(config(100_ms, 300_ms));
    rig.driver.height = 10;
    rig.controller->start_primary(LogMode::kDirectDisk, 11);
    EXPECT_EQ(discarded_on_demotion(rig, 17), 7u);
  }
  // A taker-over continues at the mirror's next seq, 7: what it commits
  // from there on is lost.
  {
    Rig rig(config(100_ms, 300_ms));
    rig.controller->start_mirror(7);
    rig.tick_at(rig.t0 + 301_ms);
    ASSERT_EQ(rig.controller->role(), NodeRole::kPrimaryAlone);
    EXPECT_EQ(discarded_on_demotion(rig, 9), 3u);
  }
  // A primary that lost its mirror at height 12 re-routes the unacked
  // commits to disk: those, and everything after, are lost.
  {
    Rig rig(config(100_ms, 300_ms));
    rig.controller->start_primary(LogMode::kMirror, 1);
    rig.driver.height = 12;
    rig.peer.inject(Message::join_request(0));
    ASSERT_EQ(rig.controller->role(), NodeRole::kPrimaryAlone);
    EXPECT_EQ(discarded_on_demotion(rig, 20), 8u);
  }
  // With its mirror still attached, a primary has acknowledged nothing
  // the mirror does not hold.
  {
    Rig rig(config(100_ms, 300_ms));
    rig.controller->start_primary(LogMode::kMirror, 1);
    EXPECT_EQ(discarded_on_demotion(rig, 20), 0u);
  }
}

}  // namespace
}  // namespace rodain::repl
