#pragma once
// Parallel measurement execution.
//
// The campaign driver is split into two phases per simulated day. The
// *schedule* phase runs sequentially and owns every piece of shared state —
// the daily budget, the country cursor, connectivity draws, fault retries —
// and emits a flat list of MeasurementTasks. The *execute* phase, this
// module, runs those tasks: it shards the list into fixed-size chunks,
// forks an independent RNG per chunk from a single execution root, and
// merges results back in task order, one batch of chunks at a time.
//
// The pool drains the day's chunks in order without stopping at batch
// boundaries; the calling thread merges each batch as soon as its last
// chunk lands and hands it on, while the pool runs ahead into the next
// batch (never further: staging holds two batches).
//
// Determinism across thread counts falls out of three choices:
//  * the chunk and batch sizes are constants (not derived from the worker
//    count), so the decomposition is identical for --threads 1 and N;
//  * each task's RNG is forked from (execution root, chunk index, offset
//    within chunk) — never from any other task's draws;
//  * results land in preallocated slots indexed by task position and are
//    appended to the dataset in that order, regardless of which worker
//    finished first.
// So core::dataset_hash is bit-identical for every worker-pool size.

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "fault/plan.hpp"
#include "measure/engine.hpp"
#include "measure/records.hpp"
#include "probes/fleet.hpp"
#include "topology/world.hpp"
#include "util/rng.hpp"

namespace cloudrtt::measure {

class ParallelExecutor {
 public:
  /// Tasks per chunk. A constant (never a function of the worker count) so
  /// the RNG forking tree is identical for any --threads value.
  static constexpr std::size_t kChunkSize = 64;
  /// Chunks per batch: a day merges and hands on its rows 4,096 tasks at a
  /// time, so the staging slots and the workers' hop vectors hold two
  /// batches, never a whole day. Also a constant: batch boundaries fall on
  /// the same tasks at every --threads value and every daily volume.
  static constexpr std::size_t kBatchChunks = 64;
  static constexpr std::size_t kBatchTasks = kBatchChunks * kChunkSize;

  /// Receives each merged batch: `first_task` is its first task index in the
  /// day, and its rows are `out`'s ping rows from `ping_begin` and trace rows
  /// from `trace_begin` to the end. It may clear `out`'s rows.
  using BatchSink = std::function<void(std::size_t first_task,
                                       std::size_t ping_begin,
                                       std::size_t trace_begin)>;

  explicit ParallelExecutor(unsigned threads = 1)
      : threads_(threads == 0 ? 1 : threads) {}

  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Run every task and append one ping row + one trace row (hops spliced
  /// into the flat pool) per task to `out`'s columns, in task order, calling
  /// `merged` on the calling thread after each batch lands. Batch b covers
  /// the day's tasks [b * kBatchTasks, (b + 1) * kBatchTasks). `chunk_root`
  /// seeds the per-chunk RNG tree; pass the same value to get the same
  /// records at any thread count. With one worker (or few tasks) this
  /// degenerates to an inline loop — no pool. Worker exceptions (and the
  /// sink's) are rethrown here after all workers have joined.
  /// `skip_tasks` elides execution (and appending) of the first tasks while
  /// keeping the chunk decomposition and RNG forks of the remainder
  /// identical to a full run — a mid-day resume executes tasks
  /// [skip_tasks, n) with exactly the records a full run would have given
  /// them, because each task's RNG is forked per (chunk, offset), never
  /// advanced by its neighbours. The first batch then starts at skip_tasks.
  /// Non-const: the executor owns per-batch scratch (the staging slots and
  /// per-worker path and hop scratch) that it recycles between batches —
  /// state that never influences the records, only the allocation count.
  /// The engine's counters and ping-RTT histogram see the call's tasks once,
  /// after the pool joins (on the exception path too): each worker tallies
  /// its tasks with its busy-time accounting. The gauge
  /// `measure.staging_arena_high_water_bytes` keeps the largest
  /// staging footprint any executor of the process has reached.
  void execute(const Engine& engine, std::span<const MeasurementTask> tasks,
               const util::Rng& chunk_root, Dataset& out,
               std::size_t skip_tasks, const BatchSink& merged);

 private:
  /// Batches in flight: the one the calling thread merges next, and the
  /// one the pool runs ahead into meanwhile.
  static constexpr std::size_t kLanes = 2;

  /// Per-task trace staging: the scalar core plus the task's hop range in
  /// the worker scratch that produced it.
  struct TraceSlot {
    TraceCore core;
    std::uint32_t hop_begin = 0;
    std::uint32_t hop_count = 0;
    std::uint32_t worker = 0;
  };
  /// Result slots of the batch a lane holds, indexed by task position in the
  /// batch. Refilled per batch with their capacity kept, so steady-state
  /// batches allocate nothing.
  struct Staging {
    std::vector<PingRecord> pings;
    std::vector<TraceSlot> traces;
  };

  unsigned threads_;
  std::array<Staging, kLanes> staging_;
  /// One per worker and lane, at worker * kLanes + lane; each is touched by
  /// one thread at a time, and sits on cache lines of its own.
  std::vector<MeasurementScratch> worker_scratch_;
};

}  // namespace cloudrtt::measure
