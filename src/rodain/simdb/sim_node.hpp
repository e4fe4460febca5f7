// A complete RODAIN node on the simulation timeline.
//
// This is the driver that turns the passive engine into the system of the
// paper: a single preemptive-EDF CPU executes transaction steps, the
// overload manager caps concurrent transactions, deadline expiry aborts firm
// transactions, the Log Writer ships redo records to the Mirror Node (or to
// the local simulated disk when alone), and a repl::ReplicaController,
// ticked by a virtual-time event at each of its due times, decides the §2
// role transitions: the peer of a failed node serves alone, and a
// recovered node always comes back as Mirror.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>

#include "rodain/common/stats.hpp"
#include "rodain/engine/engine.hpp"
#include "rodain/repl/controller.hpp"
#include "rodain/sched/overload.hpp"
#include "rodain/sched/reservation.hpp"
#include "rodain/sim/cpu.hpp"
#include "rodain/sim/simulation.hpp"

namespace rodain::simdb {

struct TxnResult {
  TxnId id{kInvalidTxn};
  TxnOutcome outcome{TxnOutcome::kCommitted};
  bool late{false};  ///< committed, but after its deadline
  TimePoint arrival{};
  TimePoint finish{};
  int restarts{0};
};

struct SimNodeConfig {
  engine::EngineConfig engine{};
  sched::OverloadConfig overload{};
  /// CPU fraction reserved (on demand) for non-real-time transactions.
  double nonrt_fraction{0.05};
  /// False replaces the simulated disk with an instant in-memory sink —
  /// the paper's Fig. 3 "disk writing turned off" configurations.
  bool disk_enabled{true};
  log::SimDiskLogStorage::Options disk{};
  /// Role-rule timing: see repl::ReplicaController::Config.
  Duration heartbeat_interval{Duration::millis(50)};
  Duration watchdog_timeout{Duration::millis(200)};
  Duration takeover_activation{Duration::millis(1)};
  Duration ack_timeout{Duration::millis(100)};
  Duration disconnect_grace{Duration::zero()};
  /// Group-commit batching for the mirror ship path (DESIGN.md §9). The
  /// default (max_txns 1, no delay) ships every submission immediately.
  log::LogWriter::BatchOptions log_batch{};
  std::size_t store_capacity_hint{30000};
  /// Periodic modelled checkpoints on the virtual timeline: the write
  /// itself is instantaneous (the simulator has no checkpoint file), but
  /// the cadence truncates the modelled log below each boundary, so disk
  /// backlog and log-size behaviour match a node with real checkpoints.
  /// Zero disables the cadence (historical behaviour).
  Duration checkpoint_interval{Duration::zero()};
  /// Instant restart (DESIGN.md §12): restart_from_disk() indexes the
  /// stored log and serves after takeover_activation, replaying deferred
  /// chains on first touch plus background sweep events. False models the
  /// classical full replay, which blocks serving for
  /// replay_cost_per_txn * logged transactions.
  bool instant_recovery{false};
  /// Background-sweep cadence and per-event transaction budget while the
  /// redo index drains (effective background replay rate =
  /// recovery_sweep_txns / recovery_sweep_interval).
  Duration recovery_sweep_interval{Duration::millis(2)};
  std::size_t recovery_sweep_txns{64};
  /// Modelled CPU cost to replay one logged transaction during a full
  /// (non-instant) restart.
  Duration replay_cost_per_txn{Duration::micros(40)};
};

class SimNode final : private repl::ReplicaController::Driver {
 public:
  using DoneFn = std::function<void(const TxnResult&)>;
  using RoleChangeFn = std::function<void(NodeRole)>;

  SimNode(sim::Simulation& sim, std::string name, NodeId id,
          SimNodeConfig config);
  ~SimNode() override;
  SimNode(const SimNode&) = delete;
  SimNode& operator=(const SimNode&) = delete;

  /// Attach the channel toward the peer node (before starting a role).
  void connect(net::Channel& channel) { replica_.set_channel(&channel); }
  void set_role_change_handler(RoleChangeFn fn) {
    on_role_change_ = std::move(fn);
  }

  // ---- lifecycle -------------------------------------------------------
  /// Serve transactions. kMirror ships logs to the peer; kDirectDisk logs
  /// locally before commit; kOff disables logging.
  void start_as_primary(LogMode mode);
  /// Maintain the database copy for the peer (fresh start, stores already
  /// identical; the redo stream begins at `expected_next`).
  void start_as_mirror(ValidationTs expected_next = 1);
  /// Crash-stop. In-flight transactions die with kSystemAborted.
  void fail();
  /// Come back from a crash and rejoin as Mirror via snapshot + catch-up.
  void recover_and_rejoin();

  /// Restart alone from the surviving local disk (no peer involved). The
  /// surviving store stands in for the checkpoint file — redo replay is
  /// idempotent, so what the two modes model differently is the *work*:
  /// with instant_recovery the node serves after takeover_activation and
  /// drains a redo index via on-demand + sweep events; without it, serving
  /// is delayed by replay_cost_per_txn for every logged transaction.
  struct RestartStats {
    std::uint64_t replayable_txns{0};  ///< committed txns in the stored log
    std::uint64_t deferred_txns{0};    ///< parked in the redo index (instant)
    Duration time_to_serve{};          ///< virtual delay until serving
    bool instant{false};
  };
  RestartStats restart_from_disk(LogMode mode = LogMode::kDirectDisk);

  /// True while instant-restart redo chains are still draining.
  [[nodiscard]] bool recovering() const {
    return recovery_ && recovery_->active();
  }
  /// The redo index of the last instant restart (counters survive the
  /// drain); null before the first restart_from_disk and once the serving
  /// role ends (a crash or a demotion).
  [[nodiscard]] log::RedoIndex* recovery() { return recovery_.get(); }

  [[nodiscard]] NodeRole role() const { return replica_.role(); }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool serving() const { return replica_.serving(); }

  // ---- data ------------------------------------------------------------
  [[nodiscard]] storage::ObjectStore& store() { return store_; }
  [[nodiscard]] storage::BPlusTree& index() { return index_; }

  // ---- client API ------------------------------------------------------
  void submit(txn::TxnProgram program, DoneFn done);

  /// Observe every finished transaction (with its full descriptor — read
  /// sets, captured reads, timestamps) before it is destroyed. Used by the
  /// serializability property tests and by telemetry.
  using TxnObserver =
      std::function<void(const txn::Transaction&, const TxnResult&)>;
  void set_txn_observer(TxnObserver observer) {
    observer_ = std::move(observer);
  }

  // ---- telemetry -------------------------------------------------------
  [[nodiscard]] const TxnCounters& counters() const { return counters_; }
  [[nodiscard]] const LatencyHistogram& commit_latency() const {
    return commit_latency_;
  }
  [[nodiscard]] std::size_t active_txns() const { return active_.size(); }
  [[nodiscard]] engine::Engine* engine() { return engine_.get(); }
  [[nodiscard]] log::LogWriter* log_writer() { return replica_.writer(); }
  [[nodiscard]] log::LogStorage* disk() { return disk_.get(); }
  [[nodiscard]] repl::MirrorService* mirror_service() {
    return replica_.mirror();
  }
  [[nodiscard]] sim::SimCpu& cpu() { return cpu_; }
  [[nodiscard]] sched::OverloadManager& overload() { return overload_; }

 private:
  struct Active {
    std::unique_ptr<txn::Transaction> txn;
    DoneFn done;
    sim::SimCpu::JobId job{sim::SimCpu::kInvalidJob};
    sim::EventId resume_event{sim::kInvalidEvent};
    sim::EventId deadline_event{sim::kInvalidEvent};
    bool late{false};
    /// A resume (lock grant / log ack) arrived while the previous step's
    /// CPU charge was still in flight; consume it in on_step_done.
    bool pending_resume{false};
  };

  // repl::ReplicaController::Driver.
  void on_role(NodeRole role) override;
  void build_engine(log::LogWriter& writer, ValidationTs next_seq) override;
  void drop_engine() override;
  void wake_at(TimePoint at) override;
  void schedule_flush(Duration delay) override;
  /// The simulator has no checkpoint file: the cadence exists for its
  /// truncation of the modelled log, and the write is modelled as free.
  Status write_checkpoint(ValidationTs) override { return Status::ok(); }
  std::optional<repl::JoinArtifacts> join_artifacts() override {
    return std::nullopt;
  }
  [[nodiscard]] ValidationTs commit_height() const override {
    return engine_ ? engine_->installed_low_water() : 0;
  }

  void run_tick();
  void schedule_checkpoint();
  void checkpoint_tick();
  void schedule_recovery_sweep();

  void run_step(TxnId id);
  void on_step_done(TxnId id, engine::StepAction action, Duration cost);
  void schedule_resume(TxnId id);
  void cancel_pending_work(Active& a);
  void on_deadline(TxnId id);
  void finish(TxnId id, TxnOutcome outcome);

  [[nodiscard]] PriorityKey dispatch_key(const txn::Transaction& t);

  sim::Simulation& sim_;
  std::string name_;
  NodeId node_id_;
  SimNodeConfig config_;

  storage::ObjectStore store_;
  storage::BPlusTree index_;
  std::unique_ptr<log::LogStorage> disk_;
  repl::ReplicaController replica_;
  /// Built over replica_'s writer; destroyed before it.
  std::unique_ptr<engine::Engine> engine_;

  sim::SimCpu cpu_;
  sched::OverloadManager overload_;
  sched::NonRtReservation reservation_;
  RoleChangeFn on_role_change_;
  /// The next controller tick, and when it runs.
  sim::EventId tick_event_{sim::kInvalidEvent};
  TimePoint tick_at_{TimePoint::max()};
  /// Virtual-time checkpoint cadence while serving (armed by the primary
  /// roles, cancelled on fail()).
  sim::EventId checkpoint_event_{sim::kInvalidEvent};
  /// Deferred-redo index while an instant restart drains (DESIGN.md §12);
  /// kept after the drain so benches can read its counters, dropped with
  /// the serving role.
  std::unique_ptr<log::RedoIndex> recovery_;
  sim::EventId sweep_event_{sim::kInvalidEvent};

  std::unordered_map<TxnId, Active> active_;
  /// Non-RT transactions whose current CPU job runs at background priority;
  /// re-boosted in place when the reservation falls behind its share.
  std::set<TxnId> nonrt_queued_;
  TxnObserver observer_;
  std::uint64_t next_local_txn_{1};
  std::uint64_t admission_seq_{0};
  TxnCounters counters_;
  LatencyHistogram commit_latency_;
};

}  // namespace rodain::simdb
