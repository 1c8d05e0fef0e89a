#pragma once
// ShardWriter: the crash-safe streaming spine of a campaign.
//
// One writer per (store directory, platform). Rows stream out at the end of
// every executed day as framed, checksummed blocks (see codec.hpp) appended
// to the platform's one shard file; the format=4 manifest — rewritten
// atomically at day boundaries — is the commit point that makes them part
// of the dataset. Anything on disk beyond the manifest's shard mark is an
// *uncommitted tail* that salvage (salvage.hpp) re-validates block by block
// on resume.
//
// Order: a single writer thread appends every block strictly FIFO, in
// global day/task order, with a contiguous `seq`. That is what lets salvage
// trust that a later-day block implies every earlier day was fully
// appended, and what lets a row scan read the file front to back.
//
// Asynchrony: append_day() and commit() only copy the rows and enqueue a
// job; one background worker serialises, checksums, appends (a day's
// blocks frame into one buffer and retire with a single fsynced write) and
// rewrites the manifest. The campaign thread therefore pays row copies,
// not disk I/O, and the spill overlaps the execution of later days. drain() blocks until
// every queued job has retired; the destructor drains, so by the time the
// writer goes out of scope the store is quiescent and everything the disk
// accepted is durable. restore() must be called before the first enqueue.
//
// Degrade-don't-die: when the disk misbehaves (see store::FaultyIoEnv) the
// worker keeps serialised blocks queued in memory, logs one loud warning,
// flips the store.degraded gauge and the campaign runs on. Every later
// append or commit first retries the queue in order; the manifest is never
// advanced past data that is not durably on disk, so a crash during a
// degraded episode loses only what the disk had already refused to take.
// append_day()/commit() return the advisory "store was healthy as of the
// last retired job" — the ground truth after a drain() is degraded().

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "measure/campaign.hpp"
#include "measure/records.hpp"
#include "obs/metrics.hpp"
#include "store/codec.hpp"
#include "store/io_env.hpp"

namespace cloudrtt::store {

/// Identity stamped into the manifest; resume refuses a seed mismatch.
struct StoreMeta {
  std::string platform;
  std::uint64_t seed = 0;
  std::string fault_profile = "none";
};

/// Continuation state of a shard file: where durable data ends and the
/// next block sequence number. Produced by open_store(), consumed by
/// restore().
struct ShardState {
  std::uint64_t durable_bytes = 0;
  std::uint64_t next_seq = 0;
};

class ShardWriter {
 public:
  /// Open the store directory for writing. `fresh` wipes any existing
  /// artefacts for the platform (a non-resume run starts over); a resume
  /// passes false and then restore()s the state open_store() recovered.
  ShardWriter(std::filesystem::path dir, StoreMeta meta, IoEnv& io,
              bool fresh);

  /// The same, taking the lane count the store was once split by and
  /// ignoring it. Only e2ebench/e2e_bench.cpp still calls it, passing
  /// --threads; delete it once that caller drops the count (ROADMAP's
  /// benchmark item).
  ShardWriter(std::filesystem::path dir, StoreMeta meta,
              std::size_t /*ignored_lanes*/, IoEnv& io, bool fresh)
      : ShardWriter(std::move(dir), std::move(meta), io, fresh) {}

  /// Drains the queue and joins the worker: the store is quiescent (and as
  /// durable as the disk allowed) once the writer is gone.
  ~ShardWriter();

  ShardWriter(const ShardWriter&) = delete;
  ShardWriter& operator=(const ShardWriter&) = delete;

  /// Continue writing where a salvaged store left off. Must run before the
  /// first append_day()/commit() — the writer refuses once jobs are in
  /// flight.
  void restore(const ShardState& shard, std::uint64_t durable_tasks);

  /// Stream one executed day: ping rows [ping_begin, data.pings.size()) and
  /// trace rows [trace_begin, data.traces.size()) of `data` are tasks
  /// [first_task, ...) of `day`, with `day_start_cursor` the country cursor
  /// at the day's start. Copies the row slice (a columnar splice — a handful
  /// of bulk copies, no per-trace allocation) and enqueues it for the
  /// worker; returns the advisory "not degraded as of the last retired job".
  bool append_day(std::uint32_t day, std::size_t day_start_cursor,
                  std::uint32_t first_task, const measure::Dataset& data,
                  std::size_t ping_begin, std::size_t trace_begin);

  /// Enqueue a manifest commit of `state`. The worker skips it while blocks
  /// are still pending — the manifest must never claim rows the disk does
  /// not hold. Advisory return, like append_day().
  bool commit(const measure::CampaignState& state);

  /// Write a whole collected dataset at once: every day of `data` as
  /// blocks, then commit `state` and drain. Tests and benches use it to
  /// build a store from rows they already hold. Unlike the streaming calls
  /// this returns the ground truth: false when the disk rejected part of it
  /// (the store stays uncommitted/degraded).
  bool adopt(const measure::Dataset& data,
             const measure::CampaignState& state);

  /// Block until every enqueued job has retired. On return degraded() and
  /// pending_blocks() describe the store's true state.
  void drain();

  [[nodiscard]] bool degraded() const {
    return degraded_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t pending_blocks() const {
    return pending_count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::filesystem::path manifest_path() const {
    return store_manifest_path(dir_, meta_.platform);
  }
  [[nodiscard]] std::filesystem::path shard_path() const {
    return store_shard_path(dir_, meta_.platform);
  }

 private:
  /// One enqueued unit: a day's rows (a columnar slice copied off the
  /// campaign thread — hop lists already live in the column's flat pool, so
  /// the copy is a fixed number of bulk vector splices) or a manifest
  /// commit.
  struct Job {
    bool is_commit = false;
    std::uint32_t day = 0;
    std::size_t cursor = 0;
    std::uint32_t first_task = 0;
    measure::Dataset rows;
    measure::CampaignState state;
  };

  /// One day's framed blocks, already concatenated: the unit the disk
  /// accepts (one append + fsync) or refuses (requeued until it heals).
  struct PendingAppend {
    std::string bytes;         ///< header line + payload, per block, in order
    std::uint64_t rows = 0;    ///< tasks (== pings == traces) across blocks
    std::uint64_t blocks = 0;  ///< framed blocks in `bytes`
  };

  void enqueue(Job job);
  void worker_loop();
  void do_append_day(const Job& job);
  void do_commit(const measure::CampaignState& state);
  /// Drain the pending queue in order; stops at the first failed append.
  bool flush();
  void enter_degraded(const std::string& reason);

  std::filesystem::path dir_;
  StoreMeta meta_;
  IoEnv& io_;

  // -- worker-owned state (the caller touches it only in the constructor
  //    and restore(), both strictly before the first enqueue) --------------
  ShardState shard_;             ///< the durable mark
  std::uint64_t alloc_seq_ = 0;  ///< next seq to assign
  /// True when the shard may carry torn bytes past the durable mark (a
  /// failed append); the next flush truncates before appending again.
  bool torn_ = false;
  std::deque<PendingAppend> pending_;
  std::uint64_t pending_bytes_ = 0;
  std::uint64_t pending_block_count_ = 0;
  std::string payload_scratch_;  ///< per-block payload, capacity reused
  std::uint64_t durable_tasks_ = 0;

  // -- queue + cross-thread state ------------------------------------------
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  // lint:guarded_by(mutex_)
  std::deque<Job> jobs_;
  // lint:guarded_by(mutex_)
  bool worker_busy_ = false;
  // lint:guarded_by(mutex_)
  bool started_ = false;  ///< any job ever enqueued (restore() guard)
  // lint:guarded_by(mutex_)
  bool stop_ = false;
  std::atomic<bool> degraded_{false};
  std::atomic<std::size_t> pending_count_{0};

  obs::Counter& spill_bytes_;
  obs::Counter& spill_blocks_;
  obs::Counter& append_failures_;
  obs::Counter& commits_;
  obs::Counter& commits_skipped_;
  obs::Counter& commit_failures_;
  obs::Gauge& pending_blocks_gauge_;
  obs::Gauge& pending_bytes_gauge_;
  obs::Gauge& degraded_gauge_;

  std::thread worker_;  ///< last member: joins after everything else lives
};

}  // namespace cloudrtt::store
