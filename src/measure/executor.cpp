#include "measure/executor.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_events.hpp"

namespace cloudrtt::measure {

namespace {

/// Wall-clock accounting one worker accumulates while draining chunks, and
/// the engine's counts of the tasks it ran. Collected locally (no sharing
/// while hot) and folded into metrics and the trace buffer after the pool
/// joins.
struct WorkerStats {
  std::uint64_t busy_ns = 0;   ///< time inside run_chunk
  std::uint64_t wait_ns = 0;   ///< gaps between chunks (queue, lanes, merges)
  std::uint64_t chunks = 0;
  std::uint64_t start_ns = 0;  ///< when the worker began draining
  std::uint64_t end_ns = 0;    ///< when the worker ran out of chunks
  EngineTally tally;           ///< what run_task counted
};

[[nodiscard]] double to_ms(std::uint64_t ns) {
  return static_cast<double>(ns) / 1e6;
}

/// One batch in flight: its tasks and how many of its chunks are still to
/// finish. Its result slots are the executor's staging of the same lane.
struct Lane {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::atomic<std::size_t> chunks_left{0};
};

}  // namespace

void ParallelExecutor::execute(const Engine& engine,
                               std::span<const MeasurementTask> tasks,
                               const util::Rng& chunk_root, Dataset& out,
                               std::size_t skip_tasks,
                               const BatchSink& merged) {
  const std::size_t n = tasks.size();
  if (skip_tasks >= n) return;

  obs::Registry& registry = obs::Registry::global();
  obs::Histogram& chunk_ms = registry.histogram("measure.chunk_ms");
  // Fraction of the execute phase the pool spent inside chunks (1.0 = no
  // idle time); the counter accumulates busy time across phases.
  obs::Gauge& busy_fraction = registry.gauge("measure.worker_busy_fraction");
  obs::Counter& busy_ms_total =
      registry.counter("measure.worker_busy_ms_total");
  obs::Gauge& staging_high_water =
      registry.gauge("measure.staging_arena_high_water_bytes");
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();

  // Chunks wholly inside the skipped prefix never run; the chunk indices of
  // the rest are unchanged, so their RNG forks match a full run exactly.
  const std::size_t first_chunk = skip_tasks / kChunkSize;
  const std::size_t chunk_count = (n + kChunkSize - 1) / kChunkSize;
  const std::size_t batch_count =
      (chunk_count + kBatchChunks - 1) / kBatchChunks;
  const std::size_t workers =
      std::min<std::size_t>(threads_, chunk_count - first_chunk);
  if (worker_scratch_.size() < workers * kLanes) {
    worker_scratch_.resize(workers * kLanes);
  }
  const auto scratch_of = [&](std::size_t worker,
                              std::size_t batch) -> MeasurementScratch& {
    return worker_scratch_[worker * kLanes + batch % kLanes];
  };

  // Results land in slots indexed by task position within the batch, so the
  // merge order is the schedule order no matter which worker ran which
  // chunk. Batch b uses lane b % kLanes; opening it refills the lane's
  // staging and clears the workers' hop vectors of that lane (capacity
  // kept), which is safe because batch b - kLanes has merged and no chunk of
  // b has started.
  std::array<Lane, kLanes> lanes;
  const auto open_lane = [&](std::size_t batch) {
    Lane& lane = lanes[batch % kLanes];
    Staging& staging = staging_[batch % kLanes];
    lane.begin = std::max(skip_tasks, batch * kBatchTasks);
    lane.end = std::min(n, (batch + 1) * kBatchTasks);
    const std::size_t rows = lane.end - lane.begin;
    staging.pings.assign(rows, PingRecord{});
    staging.traces.assign(rows, TraceSlot{});
    const std::size_t chunk_end = (lane.end + kChunkSize - 1) / kChunkSize;
    lane.chunks_left.store(chunk_end - lane.begin / kChunkSize,
                           std::memory_order_relaxed);
    for (std::size_t w = 0; w < workers; ++w) scratch_of(w, batch).hops.clear();
  };

  // Hand-off between the pool and the calling thread, which merges. A
  // worker may run chunks of batches below `open_limit` (their lanes are
  // open); it waits for the merge to open the next lane rather than
  // overwrite one that has not merged yet.
  std::mutex mutex;
  std::condition_variable changed;
  std::atomic<std::size_t> next_chunk{first_chunk};
  std::atomic<std::size_t> open_limit{0};
  std::atomic<bool> abort{false};
  std::exception_ptr failure;
  const auto fail = [&] {
    {
      const std::scoped_lock lock{mutex};
      if (!failure) failure = std::current_exception();
      abort.store(true, std::memory_order_relaxed);
    }
    changed.notify_all();
  };

  const auto run_chunk = [&](std::size_t chunk, WorkerStats& stats,
                             std::size_t worker) {
    const std::size_t batch = chunk / kBatchChunks;
    Lane& lane = lanes[batch % kLanes];
    Staging& staging = staging_[batch % kLanes];
    MeasurementScratch& scratch = scratch_of(worker, batch);
    const std::uint64_t start_ns = obs::monotonic_ns();
    const util::Rng chunk_rng = chunk_root.fork(chunk);
    const std::size_t begin = chunk * kChunkSize;
    const std::size_t end = std::min(begin + kChunkSize, n);
    for (std::size_t i = std::max(begin, lane.begin); i < end; ++i) {
      util::Rng task_rng = chunk_rng.fork(i - begin);
      // Hops pack into the worker's flat hop vector; the slot remembers the
      // range so the canonical merge can copy it into the dataset's hop pool.
      TraceSlot& slot = staging.traces[i - lane.begin];
      slot.hop_begin = static_cast<std::uint32_t>(scratch.hops.size());
      const TaskRecords records =
          engine.run_task(tasks[i], task_rng, scratch, stats.tally);
      staging.pings[i - lane.begin] = records.ping;
      slot.core = records.trace;
      slot.hop_count =
          static_cast<std::uint32_t>(scratch.hops.size()) - slot.hop_begin;
      slot.worker = static_cast<std::uint32_t>(worker);
    }
    const std::uint64_t end_ns = obs::monotonic_ns();
    stats.busy_ns += end_ns - start_ns;
    stats.chunks += 1;
    chunk_ms.record(to_ms(end_ns - start_ns));
    if (recorder.enabled()) {
      recorder.record_complete("executor.chunk", "executor", start_ns,
                               end_ns - start_ns,
                               {{"chunk", static_cast<double>(chunk)},
                                {"tasks", static_cast<double>(end - begin)}});
    }
    // The last chunk of a batch releases its slots to the merging thread.
    bool last = false;
    {
      const std::scoped_lock lock{mutex};
      last = lane.chunks_left.fetch_sub(1, std::memory_order_acq_rel) == 1;
    }
    if (last) changed.notify_all();
  };

  // Canonical merge: schedule-order append, making the dataset identical for
  // every worker-pool size. Then the batch is handed on and its lane reopens
  // for the batch kLanes ahead.
  std::size_t next_merge = first_chunk / kBatchChunks;
  const auto merge_next = [&] {
    const Lane& lane = lanes[next_merge % kLanes];
    const Staging& staging = staging_[next_merge % kLanes];
    const std::size_t ping_begin = out.pings.size();
    const std::size_t trace_begin = out.traces.size();
    {
      const obs::Span merge_span{"merge"};
      const std::uint64_t merge_start_ns = obs::monotonic_ns();
      // Reservation hints are exact: the schedule told us the row count and
      // the workers counted the hops. The columns grow geometrically past
      // them, so a day of batches copies no column more than a few times.
      const std::size_t rows = lane.end - lane.begin;
      out.pings.reserve(ping_begin + rows);
      out.traces.reserve(trace_begin + rows);
      std::size_t hop_total = 0;
      for (const TraceSlot& slot : staging.traces) hop_total += slot.hop_count;
      out.traces.reserve_hops(hop_total);
      for (const PingRecord& ping : staging.pings) out.pings.push_back(ping);
      for (const TraceSlot& slot : staging.traces) {
        const std::vector<HopRecord>& hops =
            scratch_of(slot.worker, next_merge).hops;
        out.traces.push_back(
            slot.core, std::span{hops}.subspan(slot.hop_begin, slot.hop_count));
      }
      if (recorder.enabled()) {
        recorder.record_complete("executor.merge", "executor", merge_start_ns,
                                 obs::monotonic_ns() - merge_start_ns,
                                 {{"tasks", static_cast<double>(rows)}});
      }
    }
    merged(lane.begin, ping_begin, trace_begin);
    ++next_merge;
    if (next_merge + kLanes - 1 < batch_count) {
      open_lane(next_merge + kLanes - 1);
      {
        const std::scoped_lock lock{mutex};
        open_limit.store(next_merge + kLanes, std::memory_order_release);
      }
      changed.notify_all();
    }
  };
  const auto merge_ready = [&] {
    const Lane& lane = lanes[next_merge % kLanes];
    return lane.chunks_left.load(std::memory_order_acquire) == 0;
  };
  // Block until the next batch to merge has finished (or a worker failed).
  const auto await_merge = [&] {
    std::unique_lock lock{mutex};
    changed.wait(lock, [&] {
      return merge_ready() || abort.load(std::memory_order_relaxed);
    });
  };

  for (std::size_t batch = next_merge;
       batch < std::min(batch_count, next_merge + kLanes); ++batch) {
    open_lane(batch);
  }
  open_limit.store(next_merge + kLanes, std::memory_order_release);

  std::vector<WorkerStats> stats(workers);
  const auto pool_worker = [&](std::size_t worker) {
    WorkerStats& entry = stats[worker];
    entry.start_ns = obs::monotonic_ns();
    std::uint64_t idle_since = entry.start_ns;
    try {
      if (recorder.enabled()) {
        recorder.name_this_thread("worker " + std::to_string(worker));
      }
      while (!abort.load(std::memory_order_relaxed)) {
        const std::size_t chunk = next_chunk.fetch_add(1);
        if (chunk >= chunk_count) break;
        const std::size_t batch = chunk / kBatchChunks;
        if (batch >= open_limit.load(std::memory_order_acquire)) {
          std::unique_lock lock{mutex};
          changed.wait(lock, [&] {
            return batch < open_limit.load(std::memory_order_acquire) ||
                   abort.load(std::memory_order_relaxed);
          });
          if (abort.load(std::memory_order_relaxed)) break;
        }
        entry.wait_ns += obs::monotonic_ns() - idle_since;
        run_chunk(chunk, entry, worker);
        idle_since = obs::monotonic_ns();
      }
    } catch (...) {
      fail();
    }
    entry.end_ns = obs::monotonic_ns();
  };

  // The calling thread is worker 0: it runs chunks like the others, but
  // merges each batch as soon as its last chunk lands, in order, so the
  // pool never waits on a merge barrier. It never waits for a lane it must
  // merge itself: before running a chunk beyond the open lanes it merges
  // the batches in the way.
  const std::uint64_t phase_start_ns = obs::monotonic_ns();
  std::vector<std::thread> pool;
  WorkerStats& own = stats[0];
  own.start_ns = phase_start_ns;
  std::uint64_t idle_since = phase_start_ns;
  try {
    pool.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
      pool.emplace_back(pool_worker, w);
    }
    bool claiming = true;
    while (next_merge < batch_count && !abort.load(std::memory_order_relaxed)) {
      if (merge_ready()) {
        merge_next();
        continue;
      }
      if (claiming) {
        const std::size_t chunk = next_chunk.fetch_add(1);
        if (chunk < chunk_count) {
          while (chunk / kBatchChunks >= next_merge + kLanes &&
                 !abort.load(std::memory_order_relaxed)) {
            await_merge();
            if (merge_ready()) merge_next();
          }
          if (abort.load(std::memory_order_relaxed)) break;
          own.wait_ns += obs::monotonic_ns() - idle_since;
          run_chunk(chunk, own, 0);
          idle_since = obs::monotonic_ns();
          continue;
        }
        claiming = false;
      }
      await_merge();
    }
  } catch (...) {
    fail();
  }
  own.end_ns = obs::monotonic_ns();
  for (std::thread& worker : pool) worker.join();
  // The registry sees the tasks once per call, whether or not one failed.
  for (WorkerStats& entry : stats) entry.tally.fold();
  if (failure) std::rethrow_exception(failure);

  // Fold per-worker accounting into the registry: a busy-time counter that
  // only ever grows plus a busy-fraction gauge for the phase just finished.
  const std::uint64_t wall_ns = obs::monotonic_ns() - phase_start_ns;
  std::uint64_t total_busy_ns = 0;
  for (const WorkerStats& entry : stats) total_busy_ns += entry.busy_ns;
  if (wall_ns > 0) {
    busy_fraction.set(static_cast<double>(total_busy_ns) /
                      (static_cast<double>(wall_ns) *
                       static_cast<double>(workers)));
  }
  busy_ms_total.inc(static_cast<std::uint64_t>(to_ms(total_busy_ns)));
  // The study's high water, not this campaign's: a later campaign with
  // smaller batches must not hide an earlier one's staging.
  std::size_t staging_bytes = 0;
  for (const Staging& lane : staging_) {
    staging_bytes += lane.pings.capacity() * sizeof(PingRecord) +
                     lane.traces.capacity() * sizeof(TraceSlot);
  }
  staging_high_water.set(std::max(staging_high_water.value(),
                                  static_cast<double>(staging_bytes)));

  if (recorder.enabled()) {
    for (std::size_t w = 0; w < stats.size(); ++w) {
      const WorkerStats& entry = stats[w];
      if (entry.end_ns <= entry.start_ns) continue;
      recorder.record_complete(
          "executor.worker", "executor", entry.start_ns,
          entry.end_ns - entry.start_ns,
          {{"worker", static_cast<double>(w)},
           {"chunks", static_cast<double>(entry.chunks)},
           {"busy_ms", to_ms(entry.busy_ns)},
           {"queue_wait_ms", to_ms(entry.wait_ns)}});
    }
  }
}

}  // namespace cloudrtt::measure
