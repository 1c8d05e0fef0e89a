#pragma once
// ShardWriter: the crash-safe streaming spine of a campaign.
//
// One writer per (store directory, platform). Rows stream in batch by batch
// as the campaign executes them, and leave as framed, checksummed blocks
// (see codec.hpp) appended to the platform's one shard file, one append per
// day; the format=4 manifest — rewritten atomically at day boundaries — is
// the commit point that makes them part of the dataset. Anything on disk
// beyond the manifest's shard mark is an *uncommitted tail* that salvage
// (salvage.hpp) re-validates block by block on resume.
//
// Order: a single writer thread appends every block strictly FIFO, in
// global day/task order, with a contiguous `seq`. That is what lets salvage
// trust that a later-day block implies every earlier day was fully
// appended, and what lets a row scan read the file front to back.
//
// Asynchrony: append_day() and commit() only copy the rows and enqueue a
// job; one background worker serialises and checksums each batch into the
// day's one buffer, appends that buffer with a single fsynced write when the
// day closes — at commit(), when a batch of a later day arrives, or at
// drain() — and rewrites the manifest. The campaign thread therefore pays
// row copies of one batch, not disk I/O, and the spill overlaps execution.
// The serialised day (~140 B a task) is the only per-day memory the writer
// keeps; it stays until the disk has taken it, and its buffer then serves
// the next day. drain() closes the open day and blocks until every queued
// job has retired; the destructor drains, so by the time the writer goes
// out of scope the store is quiescent and everything the disk accepted is
// durable. restore() must be called before the first enqueue.
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
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <mutex>
#include <optional>
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

  /// Stream rows of one day: ping rows [ping_begin, data.pings.size()) and
  /// trace rows [trace_begin, data.traces.size()) of `data` are tasks
  /// [first_task, ...) of `day`, with `day_start_cursor` the country cursor
  /// at the day's start. A day may arrive in several calls (the campaign
  /// hands on one executor batch per call), in task order; `first_task`
  /// then stays a multiple of kBlockTasks, so the blocks fall where one
  /// call with the whole day would put them. Copies the row slice (a
  /// columnar splice — a handful of bulk copies, no per-trace allocation)
  /// and enqueues it for the worker; returns the advisory "not degraded as
  /// of the last retired job".
  bool append_day(std::uint32_t day, std::size_t day_start_cursor,
                  std::uint32_t first_task, const measure::Dataset& data,
                  std::size_t ping_begin, std::size_t trace_begin);

  /// Enqueue a manifest commit of `state`: the worker closes the open day
  /// (one append + fsync of its blocks), then writes the manifest — unless
  /// blocks are still pending, because the manifest must never claim rows
  /// the disk does not hold. Advisory return, like append_day().
  bool commit(const measure::CampaignState& state);

  /// Write a whole collected dataset at once: every day of `data` as
  /// blocks, then commit `state` and drain. Tests and benches use it to
  /// build a store from rows they already hold. Unlike the streaming calls
  /// this returns the ground truth: false when the disk rejected part of it
  /// (the store stays uncommitted/degraded).
  bool adopt(const measure::Dataset& data,
             const measure::CampaignState& state);

  /// Close the open day and block until every enqueued job has retired. On
  /// return degraded() and pending_blocks() describe the store's true state.
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
  /// One enqueued unit: a batch of a day's rows (a columnar slice copied
  /// off the campaign thread — hop lists already live in the column's flat
  /// pool, so the copy is a fixed number of bulk vector splices), a
  /// manifest commit, or drain()'s request to close the open day.
  struct Job {
    enum class Kind : unsigned char { Rows, Commit, Close };
    Kind kind = Kind::Rows;
    std::uint32_t day = 0;
    std::size_t cursor = 0;
    std::uint32_t first_task = 0;
    measure::Dataset rows;
    measure::CampaignState state;
  };

  /// A day's bytes, grown with std::realloc: a growing block is extended in
  /// place or remapped, so the buffer never holds its old and new copy at
  /// once, as a std::string's regrowth does. The writer does not learn a
  /// day's size before its last batch, so the buffer grows as batches come.
  class DayBytes {
   public:
    DayBytes() = default;
    DayBytes(DayBytes&& other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0)),
          capacity_(std::exchange(other.capacity_, 0)) {}
    DayBytes& operator=(DayBytes&& other) noexcept {
      std::swap(data_, other.data_);
      std::swap(size_, other.size_);
      std::swap(capacity_, other.capacity_);
      return *this;
    }
    DayBytes(const DayBytes&) = delete;
    DayBytes& operator=(const DayBytes&) = delete;
    ~DayBytes() { std::free(data_); }

    void append(std::string_view bytes);
    void clear() { size_ = 0; }
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] std::string_view view() const { return {data_, size_}; }

   private:
    char* data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
  };

  /// One day's framed blocks, already concatenated: the unit the disk
  /// accepts (one append + fsync) or refuses (requeued until it heals).
  struct PendingAppend {
    DayBytes bytes;            ///< header line + payload, per block, in order
    std::uint64_t rows = 0;    ///< tasks (== pings == traces) across blocks
    std::uint64_t blocks = 0;  ///< framed blocks in `bytes`
  };

  void enqueue(Job job);
  void worker_loop();
  /// Frame a batch's blocks into the open day, closing an earlier one.
  void do_append_rows(const Job& job);
  /// Queue the open day's blocks for the disk and flush: the one append a
  /// day makes. A day that got no rows queues nothing but still flushes.
  void close_day();
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
  /// The day whose batches are arriving, and its blocks so far.
  std::optional<std::uint32_t> open_day_;
  PendingAppend open_;
  /// The buffer of the last day the disk took, kept for the next day: a
  /// streamed run allocates its day buffer once, not once a day.
  DayBytes spare_bytes_;
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

  obs::Counter& spill_bytes_;      ///< framed bytes durably appended
  obs::Counter& spill_blocks_;
  obs::Counter& append_failures_;  ///< appends the I/O layer refused
  obs::Counter& commits_;          ///< manifest commits that reached disk
  obs::Counter& commits_skipped_;  ///< skipped: blocks were still pending
  obs::Counter& commit_failures_;  ///< manifest writes the I/O layer refused
  obs::Gauge& pending_blocks_gauge_;
  obs::Gauge& pending_bytes_gauge_;
  obs::Gauge& degraded_gauge_;  ///< 1 while the store spills to memory

  std::thread worker_;  ///< last member: joins after everything else lives
};

}  // namespace cloudrtt::store
