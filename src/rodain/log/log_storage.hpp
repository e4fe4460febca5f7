// Durable sinks for the redo stream.
//
// The commit path cares about one operation: "make everything appended so
// far durable, tell me when". Implementations:
//   MemoryLogStorage   instant durability, inspectable — unit tests.
//   FileLogStorage     real append-only file (+ optional fsync) — the rt
//                      runtime and recovery tests.
//   SimDiskLogStorage  latency/throughput model on the simulation timeline —
//                      the figure benches (a late-1990s disk is the whole
//                      point of Fig. 2).
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "rodain/common/status.hpp"
#include "rodain/common/time.hpp"
#include "rodain/log/record.hpp"
#include "rodain/sim/simulation.hpp"

namespace rodain::log {

class LogStorage {
 public:
  virtual ~LogStorage() = default;

  /// Buffer a record (not durable yet).
  virtual void append(const Record& r) = 0;

  /// Request durability of everything appended so far. `done` fires when
  /// durable (possibly inline). Flush requests complete in issue order.
  virtual void flush(std::function<void(Status)> done) = 0;

  [[nodiscard]] virtual Lsn appended() const = 0;  ///< records appended
  [[nodiscard]] virtual Lsn durable() const = 0;   ///< records durable

  /// Drop log state at or below the checkpoint boundary (segment deletion,
  /// modelled-disk prefix trim). Returns implementation-defined units
  /// removed; the default keeps the whole log.
  virtual std::uint64_t truncate_upto(ValidationTs boundary) {
    (void)boundary;
    return 0;
  }
};

/// In-memory sink with immediate durability; keeps the records inspectable.
class MemoryLogStorage final : public LogStorage {
 public:
  void append(const Record& r) override;
  void flush(std::function<void(Status)> done) override;
  [[nodiscard]] Lsn appended() const override { return records_.size(); }
  [[nodiscard]] Lsn durable() const override { return durable_; }
  std::uint64_t truncate_upto(ValidationTs boundary) override;

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  /// Fault-injection hook (tests): the next `n` flushes report failure and
  /// leave the appended records non-durable — a full device, from the
  /// caller's point of view.
  void inject_flush_error(std::size_t n) { inject_errors_ = n; }

 private:
  std::vector<Record> records_;
  Lsn durable_{0};
  std::size_t inject_errors_{0};
};

/// Append-only log file. Flush is synchronous (write + fflush + optional
/// fsync); `done` is invoked inline.
class FileLogStorage final : public LogStorage {
 public:
  /// Opens (creates or appends to) `path`.
  static Result<std::unique_ptr<FileLogStorage>> open(
      const std::string& path, bool fsync_on_flush = false);
  ~FileLogStorage() override;

  void append(const Record& r) override;
  void flush(std::function<void(Status)> done) override;
  [[nodiscard]] Lsn appended() const override { return appended_; }
  [[nodiscard]] Lsn durable() const override { return durable_; }

  /// Read every record back (recovery); `torn` reports an incomplete tail.
  static Result<std::vector<Record>> read_all(const std::string& path,
                                              bool* torn = nullptr);

  /// Fault-injection hook (tests): the next `n` record-stream writes fail
  /// as if the device were full.
  void inject_write_error(std::size_t n) { inject_errors_ = n; }

 private:
  FileLogStorage(std::FILE* f, bool fsync_on_flush)
      : file_(f), fsync_(fsync_on_flush) {}

  std::FILE* file_;
  bool fsync_;
  ByteWriter pending_;
  std::size_t pending_written_{0};  ///< prefix of pending_ already on disk
  Lsn appended_{0};
  Lsn durable_{0};
  Lsn buffered_{0};
  std::size_t inject_errors_{0};
};

/// Disk model on the simulation timeline: each flush operation costs
/// `seek_time` plus transferred-bytes / `throughput`, and the device handles
/// one operation at a time. With `coalesce_flushes` every flush request that
/// arrives while the device is busy is folded into one operation (group
/// commit); without it each request pays its own seek — the synchronous
/// per-commit regime of the paper's lone node.
class SimDiskLogStorage final : public LogStorage {
 public:
  struct Options {
    Duration seek_time{Duration::millis(8)};
    double throughput_bytes_per_sec{4.0 * 1024 * 1024};
    bool coalesce_flushes{false};
  };

  SimDiskLogStorage(sim::Simulation& sim, Options options)
      : sim_(sim), options_(options) {}

  void append(const Record& r) override;
  void flush(std::function<void(Status)> done) override;
  [[nodiscard]] Lsn appended() const override { return appended_; }
  [[nodiscard]] Lsn durable() const override { return durable_; }

  /// Trim the durable prefix up to the last commit at or below `boundary`
  /// (the modelled analogue of segment truncation). `appended()`/`durable()`
  /// drop by the removed count so `backlog()` is unchanged.
  std::uint64_t truncate_upto(ValidationTs boundary) override;

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  /// Records appended but not yet durable — the data-loss window of claim C5.
  [[nodiscard]] Lsn backlog() const { return appended_ - durable_; }
  /// The host crashed: queued flush operations still reach the platter,
  /// but their completions are dropped — the process waiting for them is
  /// gone, and its callbacks point into it.
  void crash();
  /// Records trimmed away by checkpoint-coordinated truncation so far.
  [[nodiscard]] Lsn truncated() const { return truncated_; }

 private:
  struct FlushReq {
    Lsn upto;
    std::size_t bytes;
    std::vector<std::function<void(Status)>> callbacks;
  };

  void start_next();

  sim::Simulation& sim_;
  Options options_;
  std::vector<Record> records_;
  Lsn appended_{0};
  Lsn durable_{0};
  std::size_t unflushed_bytes_{0};
  std::deque<FlushReq> queue_;
  bool device_busy_{false};
  Lsn truncated_{0};
};

}  // namespace rodain::log
