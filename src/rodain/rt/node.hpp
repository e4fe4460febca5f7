// The real-time runtime: a RODAIN node on actual threads and sockets.
//
// Same passive engine and replica controller as the simulator, driven by
// worker threads instead of virtual time: an EDF-ordered ready queue feeds
// workers, a timer thread enforces firm deadlines, the Log Writer ships
// redo records over TCP to a peer node running the Mirror role, and a
// heartbeat thread ticks the repl::ReplicaController that decides the §2
// role transitions.
//
// Locking (DESIGN.md §11): `commit_mu_` serializes everything that touches
// engine or replication state — every engine step, log emission, role
// flips, admission, deadline aborts, inbound frames. `queue_mu_` guards
// only the EDF ready queue and the per-transaction worker-ownership flags,
// so workers can pop work and park without holding the commit mutex.
// Lock order: commit_mu_ -> queue_mu_. Off-lock readers (read_committed)
// go through the store's per-record seqlocks.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>

#include "rodain/common/clock.hpp"
#include "rodain/common/stats.hpp"
#include "rodain/engine/engine.hpp"
#include "rodain/obs/series.hpp"
#include "rodain/net/http.hpp"
#include "rodain/obs/availability.hpp"
#include "rodain/repl/controller.hpp"
#include "rodain/log/recovery.hpp"
#include "rodain/sched/overload.hpp"
#include "rodain/storage/fuzzy_checkpoint.hpp"

namespace rodain::rt {

struct NodeConfig {
  engine::EngineConfig engine{};  ///< costs default to zero: native speed
  sched::OverloadConfig overload{};
  std::size_t worker_threads{1};
  /// Redo log file; empty keeps the log in memory (tests, demos).
  std::string log_path{};
  bool fsync_log{false};
  /// Non-zero switches the redo log to the segmented store: `log_path` is
  /// then a directory, sealed segments rotate at this size, and every
  /// successful checkpoint truncates segments below its boundary.
  std::size_t log_segment_bytes{0};
  /// Periodic checkpoints (bounding restart-recovery work), in every role:
  /// a chain of base and delta files named by `<checkpoint_path>.manifest`
  /// (DESIGN.md §15). Empty path or zero interval disables the cadence.
  std::string checkpoint_path{};
  Duration checkpoint_interval{Duration::zero()};
  /// Inert: the chain above is the only checkpoint format, so there is
  /// nothing left to switch. Kept because rtbench sets and prints it.
  bool fuzzy_checkpoint{true};
  /// Deltas written between full bases; the next checkpoint after this many
  /// deltas re-bases the chain.
  std::size_t checkpoint_delta_limit{4};
  /// Instant recovery (DESIGN.md §12, segmented log only):
  /// recover_from_local_state loads the checkpoint and *indexes* the
  /// surviving segments instead of replaying them, so start_primary serves
  /// immediately; first touch replays an object's redo chain on demand and
  /// a background sweeper drains the rest. Off by default: a full replay
  /// reports exact committed_applied counts and leaves nothing deferred.
  bool instant_recovery{false};
  /// Background-sweep cadence and per-slice transaction budget while the
  /// redo index drains (each slice runs under the commit mutex).
  Duration recovery_sweep_interval{Duration::millis(1)};
  std::size_t recovery_sweep_txns{256};
  /// Role-rule timing: see repl::ReplicaController::Config (the threaded
  /// runtime takes over with no activation delay).
  Duration heartbeat_interval{Duration::millis(100)};
  Duration watchdog_timeout{Duration::millis(500)};
  Duration ack_timeout{Duration::millis(250)};
  Duration disconnect_grace{Duration::zero()};
  /// Group-commit batching for the mirror ship path (DESIGN.md §9); flush
  /// timers run on the node's timer thread. The default ships every
  /// submission immediately.
  log::LogWriter::BatchOptions log_batch{};
  std::size_t store_capacity_hint{1024};
  /// Sample the process metrics registry into a time-series on this
  /// interval (zero disables the sampler; requires obs::init enabled).
  Duration metrics_snapshot_interval{Duration::zero()};
  /// Live observability endpoint on 127.0.0.1: serves /metrics (Prometheus
  /// text), /vars (JSON), /trace (Chrome trace dump) and /healthz (role +
  /// serving). 0 picks a free port (Node::http_port() tells which); a
  /// negative value (the default) disables the server.
  int http_port{-1};

  NodeConfig() {
    engine.costs = engine::CostModel::zero();
    // CI runs the whole integration tier a second time with RODAIN_WORKERS=4
    // so every test runs with workers contending for the commit mutex.
    if (const char* env = std::getenv("RODAIN_WORKERS")) {
      char* end = nullptr;
      const long n = std::strtol(env, &end, 10);
      if (end != env && n > 0 && n <= 256) {
        worker_threads = static_cast<std::size_t>(n);
      }
    }
  }
};

struct CommitInfo {
  TxnOutcome outcome{TxnOutcome::kCommitted};
  bool late{false};
  Duration latency{Duration::zero()};
  int restarts{0};
  /// The values every read observed, in program order (only populated when
  /// EngineConfig::capture_reads is on — serializability tests).
  std::vector<storage::Value> captured_reads;
};

class Node final : private repl::ReplicaController::Driver {
 public:
  explicit Node(NodeConfig config, std::string name = "rodain");
  ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // ---- data (load before starting a role) ------------------------------
  [[nodiscard]] storage::ObjectStore& store() { return store_; }
  [[nodiscard]] storage::BPlusTree& index() { return index_; }

  // ---- lifecycle --------------------------------------------------------
  /// Serve transactions. `peer` must be non-null for LogMode::kMirror and
  /// may be non-null otherwise (to serve join requests later).
  void start_primary(LogMode mode, net::Channel* peer = nullptr);
  /// Maintain the peer's database copy; takes over if the peer goes silent.
  void start_mirror(net::Channel& peer, ValidationTs expected_next = 1);
  /// Rejoin after a restart: snapshot + catch-up from the serving peer.
  void start_rejoin(net::Channel& peer);
  void stop();

  /// Cold-start recovery: rebuild the store from the configured checkpoint
  /// and log files. Call before start_primary on a restarted node; the
  /// validation sequence continues past everything recovered.
  Result<log::RecoveryStats> recover_from_local_state();

  /// Write a checkpoint now (also runs periodically when configured).
  Status write_checkpoint();

  [[nodiscard]] NodeRole role() const;
  [[nodiscard]] bool serving() const;

  // ---- client API -------------------------------------------------------
  using DoneFn = std::function<void(const CommitInfo&)>;
  /// Asynchronous submission. `done` runs on an internal thread, never
  /// under the node's locks: a worker, the replication reader, or the
  /// timer or heartbeat thread. It must not block waiting for this node,
  /// since its thread may be the one that delivers the awaited ack:
  /// calling submit() from `done` is safe, execute() is not.
  void submit(txn::TxnProgram program, DoneFn done);
  /// Blocking convenience wrapper.
  CommitInfo execute(txn::TxnProgram program);
  /// One-shot read of a single object's committed value.
  [[nodiscard]] Result<storage::Value> get(ObjectId oid);

  /// Lock-free committed read via the store's seqlock (no transaction, no
  /// commit mutex). kNotFound: absent or tombstoned. kUnavailable: not
  /// serving (checked before AND after the snapshot, so a value read across
  /// a role flip is discarded), or seqlock retries exhausted — the caller
  /// falls back to the transactional path.
  [[nodiscard]] Result<storage::Value> read_committed(ObjectId oid);

  // ---- telemetry --------------------------------------------------------
  [[nodiscard]] TxnCounters counters() const;
  [[nodiscard]] LatencyHistogram commit_latency() const;
  [[nodiscard]] ValidationTs mirror_applied_seq() const;
  /// Rows sampled by the periodic metrics sampler (copy; thread-safe).
  [[nodiscard]] obs::TimeSeries metrics_series() const;
  /// Snapshot of this node's serving/outage timeline (copy; thread-safe).
  [[nodiscard]] obs::AvailabilityTimeline availability() const;
  /// Port of the live observability endpoint (0 when disabled).
  [[nodiscard]] std::uint16_t http_port() const;

 private:
  struct Active {
    std::unique_ptr<txn::Transaction> txn;
    DoneFn done;
    bool owned_by_worker{false};
    bool resume_pending{false};
    bool late{false};
  };

  /// Wraps the raw channel so every inbound frame and disconnect runs
  /// under the commit mutex (replication state is not thread-safe). The
  /// endpoints tear down under the mutex too, so a late callback from the
  /// socket reader finds its endpoint's liveness guard expired. The
  /// channel may outlive the node: destroying the wrapper (stop())
  /// detaches the node from it.
  class GuardedChannel final : public net::Channel {
   public:
    GuardedChannel(Node& node, net::Channel& inner)
        : node_(node), inner_(inner) {}
    ~GuardedChannel() override {
      inner_.set_message_handler({});
      inner_.set_disconnect_handler({});
    }
    void set_message_handler(MessageHandler handler) override;
    void set_disconnect_handler(DisconnectHandler handler) override;
    Status send(std::vector<std::byte> frame) override {
      return inner_.send(std::move(frame));
    }
    [[nodiscard]] bool connected() const override { return inner_.connected(); }
    void close() override { inner_.close(); }

   private:
    Node& node_;
    net::Channel& inner_;
  };

  // repl::ReplicaController::Driver; every call runs under commit_mu_.
  void on_role(NodeRole role) override;
  void build_engine(log::LogWriter& writer, ValidationTs next_seq) override;
  void drop_engine() override;
  void wake_at(TimePoint at) override { wake_heartbeat_locked(at); }
  void schedule_flush(Duration delay) override;
  Status write_checkpoint(ValidationTs boundary) override {
    return write_checkpoint_chain_locked(boundary);
  }
  std::optional<repl::JoinArtifacts> join_artifacts() override;
  [[nodiscard]] ValidationTs commit_height() const override {
    return engine_ ? engine_->installed_low_water() : 0;
  }

  /// Enter a role on `peer` (null: a lone node); `start` asks the
  /// controller for it.
  void start_role(net::Channel* peer, const std::function<void()>& start);
  /// Workers, the timer and the checkpointer, once a role serves.
  void start_serving_threads_locked();
  void start_http();
  [[nodiscard]] net::HttpServer::Response route_http(const std::string& path);
  void start_sampler_locked();
  void sample_metrics_locked();
  /// One write of chain_ (DESIGN.md §15), entered and exited with
  /// commit_mu_ held. A primary holds it only for the O(1) flip and
  /// RELEASES it for the encode and file writes: the Checkpointer's
  /// single-flight guard rejects concurrent runs, the encode reads only
  /// the store and index, and a demotion waits for it (encoding_). A
  /// mirror holds it throughout: a snapshot install must never run under
  /// the walker.
  Status write_checkpoint_chain_locked(ValidationTs boundary);
  /// Starts the cadence thread of a serving node, when one is configured.
  void start_checkpointer_locked();

  void worker_loop();
  void timer_loop();
  void heartbeat_loop();
  /// Wake the timer thread if `at` is earlier than the time it sleeps
  /// toward (requires commit_mu_).
  void wake_timer_locked(TimePoint at);
  /// Same rule for the heartbeat thread, which ticks the replica
  /// controller: the controller asks for its due times (requires
  /// commit_mu_).
  void wake_heartbeat_locked(TimePoint at);
  /// Background replay while the redo index drains (under commit_mu_).
  void sweeper_loop();
  /// Detach + retire a drained/abandoned redo index (requires commit_mu_).
  void finish_recovery_locked(const char* how);
  /// Queue a transaction for a worker (takes queue_mu_ itself). Callers on
  /// resume paths (log-durable, lock-granted, victim-restart hooks) hold
  /// commit_mu_, which is what makes park-vs-resume race-free. A worker
  /// that owns the transaction gets resume_pending instead, unless
  /// `resume_owner` is false (a restarted victim needs no resume).
  void push_ready(TxnId id, bool resume_owner = true);
  /// Acquire commit_mu_ into `lock`, timing contended waits.
  void lock_commit(std::unique_lock<std::mutex>& lock);
  /// Engine on_log_durable hook (requires commit_mu_). A transaction its
  /// worker still owns gets resume_pending; one parked in kWaitLogAck is
  /// finalized (paying the step's modelled cost in fidelity mode) and
  /// finished right here, on the thread that delivered the ack (DESIGN.md
  /// §11, finishing invariant).
  void on_log_durable_locked(TxnId id);
  /// Drive one owned transaction to a boundary. Entered with queue_mu_
  /// held (via `qlock`); returns with it held again.
  void drive(TxnId id, std::unique_lock<std::mutex>& qlock);
  /// Fidelity mode (`costs.per_read > 0`): spin for the modelled CPU cost
  /// of a step this thread just ran, still holding commit_mu_. Without
  /// fidelity mode, a no-op.
  void burn_modelled_cost(Duration cost) const;
  /// Requires commit_mu_; takes queue_mu_ internally for the active_ erase.
  /// Queues the done callback on done_ — run_done() runs it once the
  /// finishing thread has released commit_mu_.
  void finish_locked(TxnId id, TxnOutcome outcome);
  /// Release `lock` (on commit_mu_) and run every queued done callback.
  void run_done(std::unique_lock<std::mutex>& lock);

  NodeConfig config_;
  std::string name_;
  RealClock clock_;

  /// Serializes every engine step, replication, role flips, admission and
  /// telemetry.
  mutable std::mutex commit_mu_;
  /// Guards ready_ and the Active worker-ownership flags; active_ map
  /// structure is written under BOTH mutexes, so either lock may read it.
  mutable std::mutex queue_mu_;
  std::condition_variable ready_cv_;  ///< pairs with queue_mu_
  std::condition_variable timer_cv_;  ///< timer thread; pairs with commit_mu_
  /// Heartbeat thread; pairs with commit_mu_. Notified by stop(),
  /// wake_heartbeat_locked() and the end of an off-lock chain encode.
  std::condition_variable heartbeat_cv_;
  /// Pairs with commit_mu_: the checkpointer, sampler and sweeper threads
  /// keep their own time on it; only stop() notifies it.
  std::condition_variable stop_cv_;
  /// Written under commit_mu_ AND queue_mu_ together, so holding either
  /// one reads it (and both cv waits see it).
  bool stopping_{false};

  storage::ObjectStore store_;
  storage::BPlusTree index_;
  /// The segmented-log open trimmed a torn tail left by a crash; folded
  /// into RecoveryStats::torn_tail by recover_from_local_state.
  bool log_tail_trimmed_{false};
  std::unique_ptr<log::LogStorage> disk_;
  std::unique_ptr<GuardedChannel> guarded_channel_;
  /// Role, writer and replication objects (under commit_mu_).
  repl::ReplicaController replica_;
  /// Built over replica_'s writer; destroyed before it.
  std::unique_ptr<engine::Engine> engine_;
  /// A primary's chain encode runs with commit_mu_ released (under
  /// commit_mu_): a demotion waits for it to end.
  bool encoding_{false};

  sched::OverloadManager overload_;
  /// Serving/outage timeline (under commit_mu_): role flips feed it, every
  /// first-commit-of-a-window stamps time-to-first-commit.
  obs::AvailabilityTimeline availability_;
  std::unique_ptr<net::HttpServer> http_;
  /// replica_'s role, copied under commit_mu_; atomic so role()/serving()
  /// and the unlocked read_committed fast path never touch the mutex.
  std::atomic<NodeRole> role_{NodeRole::kDown};

  std::unordered_map<TxnId, Active> active_;
  struct ReadyOrder {
    bool operator()(const std::pair<PriorityKey, TxnId>& a,
                    const std::pair<PriorityKey, TxnId>& b) const {
      if (a.first.higher_than(b.first)) return true;
      if (b.first.higher_than(a.first)) return false;
      return a.second < b.second;
    }
  };
  std::set<std::pair<PriorityKey, TxnId>, ReadyOrder> ready_;
  /// Firm/soft deadlines of unfinished transactions (finish_locked erases).
  std::multimap<TimePoint, TxnId> deadlines_;
  /// The time the timer thread sleeps toward (max: no deadline or flush
  /// pending). Only an earlier deadline or flush wakes it.
  TimePoint timer_wake_at_{TimePoint::max()};
  /// The time the heartbeat thread sleeps toward (under commit_mu_).
  TimePoint heartbeat_wake_at_{TimePoint::max()};
  /// Done callbacks of finished transactions, waiting for the finishing
  /// thread to release commit_mu_ (under commit_mu_).
  std::vector<std::pair<DoneFn, CommitInfo>> done_;
  /// Earliest requested group-commit flush; the timer thread calls
  /// LogWriter::flush_batch() when it comes due (under commit_mu_).
  std::optional<TimePoint> log_flush_at_;

  std::uint64_t next_local_txn_{1};
  std::uint64_t admission_seq_{0};
  TxnCounters counters_;
  LatencyHistogram commit_latency_;

  std::vector<std::thread> workers_;
  std::thread timer_;
  std::thread heartbeater_;
  std::thread checkpointer_;
  std::thread sampler_;
  std::thread sweeper_;
  /// Instant-recovery redo index (DESIGN.md §12). Created under commit_mu_
  /// only while the node is kDown and destroyed only by the destructor, so
  /// serving-time readers may test `recovery_ && recovery_->active()`
  /// without the mutex (active() is the one member that allows that).
  std::unique_ptr<log::RedoIndex> recovery_;
  /// 1 while deferred redo chains remain (mirrors the recovery.mode gauge);
  /// atomic so the HTTP thread can report it regardless of node state.
  std::atomic<int> recovery_mode_{0};
  obs::TimeSeries series_;
  ValidationTs recovered_next_seq_{1};
  /// The checkpoint chain every role writes: the mirror's cadence, then
  /// the survivor's after a takeover, extend the same chain.
  storage::CheckpointChain chain_;
};

}  // namespace rodain::rt
