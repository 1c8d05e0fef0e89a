#pragma once
// Parallel measurement execution.
//
// The campaign driver is split into two phases per simulated day. The
// *schedule* phase runs sequentially and owns every piece of shared state —
// the daily budget, the country cursor, connectivity draws, fault retries —
// and emits a flat list of MeasurementTasks. The *execute* phase, this
// module, runs those tasks: it shards the list into fixed-size chunks,
// forks an independent RNG per chunk from a single execution root, and
// merges results back in task order.
//
// Determinism across thread counts falls out of three choices:
//  * the chunk size is a constant (not derived from the worker count), so
//    the chunk decomposition is identical for --threads 1 and --threads N;
//  * each task's RNG is forked from (execution root, chunk index, offset
//    within chunk) — never from any other task's draws;
//  * results land in preallocated slots indexed by task position and are
//    appended to the dataset in that order, regardless of which worker
//    finished first.
// So core::dataset_hash is bit-identical for every worker-pool size.

#include <cstdint>
#include <span>
#include <vector>

#include "fault/plan.hpp"
#include "measure/engine.hpp"
#include "measure/records.hpp"
#include "probes/fleet.hpp"
#include "topology/world.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace cloudrtt::measure {

class ParallelExecutor {
 public:
  /// Tasks per chunk. A constant (never a function of the worker count) so
  /// the RNG forking tree is identical for any --threads value.
  static constexpr std::size_t kChunkSize = 64;

  explicit ParallelExecutor(unsigned threads = 1)
      : threads_(threads == 0 ? 1 : threads) {}

  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Run every task and append one ping row + one trace row (hops spliced
  /// into the flat pool) per task to `out`'s columns, in task order.
  /// `chunk_root` seeds the per-chunk RNG tree; pass
  /// the same value to get the same records at any thread count. With one
  /// worker (or few tasks) this degenerates to an inline loop — no pool.
  /// Worker exceptions are rethrown here after all workers have joined.
  /// `skip_tasks` elides execution (and appending) of the first tasks while
  /// keeping the chunk decomposition and RNG forks of the remainder
  /// identical to a full run — a mid-day resume executes tasks
  /// [skip_tasks, n) with exactly the records a full run would have given
  /// them, because each task's RNG is forked per (chunk, offset), never
  /// advanced by its neighbours.
  /// Non-const: the executor owns per-day scratch (the staging arena and
  /// per-worker path scratch) that it recycles between calls — state that
  /// never influences the records, only the allocation count.
  void execute(const Engine& engine, std::span<const MeasurementTask> tasks,
               const util::Rng& chunk_root, Dataset& out,
               std::size_t skip_tasks = 0);

 private:
  unsigned threads_;
  /// Result-slot staging for the current day; reset (not freed) per call so
  /// steady-state days allocate nothing.
  util::Arena staging_;
  /// One per worker, indexed by worker id; each is touched by exactly one
  /// thread during execute(), and sits on cache lines of its own.
  std::vector<MeasurementScratch> worker_scratch_;
};

}  // namespace cloudrtt::measure
