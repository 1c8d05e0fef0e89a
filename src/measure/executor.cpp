#include "measure/executor.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_events.hpp"

namespace cloudrtt::measure {

namespace {

/// Wall-clock accounting one worker accumulates while draining chunks.
/// Collected locally (no sharing while hot) and folded into metrics and the
/// trace buffer after the pool joins.
struct WorkerStats {
  std::uint64_t busy_ns = 0;   ///< time inside run_chunk
  std::uint64_t wait_ns = 0;   ///< gaps between chunks (queue contention)
  std::uint64_t chunks = 0;
  std::uint64_t start_ns = 0;  ///< when the worker began draining
  std::uint64_t end_ns = 0;    ///< when the worker ran out of chunks
};

[[nodiscard]] double to_ms(std::uint64_t ns) {
  return static_cast<double>(ns) / 1e6;
}

/// Per-task trace staging: scalar core plus the hop range inside the worker
/// arena that produced it. Trivially destructible, so the slots live in the
/// recycled staging arena like the ping slots.
struct TraceSlot {
  TraceCore core;
  std::uint32_t hop_begin = 0;
  std::uint32_t hop_count = 0;
  std::uint32_t worker = 0;
};

}  // namespace

void ParallelExecutor::execute(const Engine& engine,
                               std::span<const MeasurementTask> tasks,
                               const util::Rng& chunk_root, Dataset& out,
                               std::size_t skip_tasks) {
  const std::size_t n = tasks.size();
  if (n == 0 || skip_tasks >= n) return;
  const std::size_t chunk_count = (n + kChunkSize - 1) / kChunkSize;
  // Chunks wholly inside the skipped prefix never run; the chunk indices of
  // the rest are unchanged, so their RNG forks match a full run exactly.
  const std::size_t first_chunk = skip_tasks / kChunkSize;

  // Results land in slots indexed by task position so the merge order is the
  // schedule order no matter which worker ran which chunk. The slot vectors
  // draw from the recycled staging arena: after the first day of a campaign
  // these two allocations cost nothing.
  staging_.reset();
  std::vector<PingRecord, util::ArenaAllocator<PingRecord>> pings(
      n, util::ArenaAllocator<PingRecord>{staging_});
  std::vector<TraceSlot, util::ArenaAllocator<TraceSlot>> traces(
      n, util::ArenaAllocator<TraceSlot>{staging_});

  obs::Registry& registry = obs::Registry::global();
  obs::Histogram& chunk_ms = registry.histogram(
      "measure.chunk_ms", "Wall-clock per executed chunk in milliseconds");
  obs::Gauge& busy_fraction = registry.gauge(
      "measure.worker_busy_fraction",
      "Fraction of the last execute phase the worker pool spent inside "
      "chunks (1.0 = no idle time)");
  obs::Counter& busy_ms_total = registry.counter(
      "measure.worker_busy_ms_total",
      "Cumulative worker busy time across execute phases in milliseconds");
  obs::Gauge& staging_high_water = registry.gauge(
      "measure.staging_arena_high_water_bytes",
      "High-water mark of the executor's per-day staging arena");
  obs::TraceRecorder& recorder = obs::TraceRecorder::global();

  const auto run_chunk = [&](std::size_t chunk, WorkerStats& stats,
                             std::size_t worker) {
    MeasurementScratch& scratch = worker_scratch_[worker];
    const std::uint64_t start_ns = obs::monotonic_ns();
    const util::Rng chunk_rng = chunk_root.fork(chunk);
    const std::size_t begin = chunk * kChunkSize;
    const std::size_t end = std::min(begin + kChunkSize, n);
    for (std::size_t i = std::max(begin, skip_tasks); i < end; ++i) {
      util::Rng task_rng = chunk_rng.fork(i - begin);
      // Hops pack into the worker's flat arena; the slot remembers the range
      // so the canonical merge can copy it into the dataset's hop pool.
      TraceSlot& slot = traces[i];
      slot.hop_begin = static_cast<std::uint32_t>(scratch.hops.size());
      const TaskRecords records = engine.run_task(tasks[i], task_rng, scratch);
      pings[i] = records.ping;
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
  };

  const std::uint64_t phase_start_ns = obs::monotonic_ns();
  const std::size_t workers =
      std::min<std::size_t>(threads_, chunk_count - first_chunk);
  std::vector<WorkerStats> stats(workers);
  if (worker_scratch_.size() < workers) worker_scratch_.resize(workers);
  // Hop arenas restart empty each phase (capacity recycled): slot ranges are
  // relative to this call's appends.
  for (MeasurementScratch& scratch : worker_scratch_) scratch.hops.clear();

  // One worker drains the shared chunk counter until it runs dry. The gap
  // between finishing one chunk and starting the next is queue wait — with a
  // lock-free counter it should stay near zero; growth means the chunks are
  // too small or the allocator is contended.
  const auto drain = [&](WorkerStats& stats_entry, std::size_t worker,
                         std::atomic<std::size_t>& next_chunk) {
    stats_entry.start_ns = obs::monotonic_ns();
    std::uint64_t idle_since = stats_entry.start_ns;
    for (std::size_t chunk = next_chunk.fetch_add(1); chunk < chunk_count;
         chunk = next_chunk.fetch_add(1)) {
      const std::uint64_t pick_ns = obs::monotonic_ns();
      stats_entry.wait_ns += pick_ns - idle_since;
      run_chunk(chunk, stats_entry, worker);
      idle_since = obs::monotonic_ns();
    }
    stats_entry.end_ns = obs::monotonic_ns();
  };

  if (workers <= 1) {
    stats[0].start_ns = phase_start_ns;
    for (std::size_t chunk = first_chunk; chunk < chunk_count; ++chunk) {
      run_chunk(chunk, stats[0], 0);
    }
    stats[0].end_ns = obs::monotonic_ns();
  } else {
    std::atomic<std::size_t> next_chunk{first_chunk};
    std::mutex failure_mutex;
    std::exception_ptr failure;
    const auto guarded = [&](std::size_t worker) {
      // Worker 0 is the calling thread — leave its name ("main") alone.
      if (worker != 0 && recorder.enabled()) {
        recorder.name_this_thread("worker " + std::to_string(worker));
      }
      try {
        drain(stats[worker], worker, next_chunk);
      } catch (...) {
        stats[worker].end_ns = obs::monotonic_ns();
        const std::scoped_lock lock{failure_mutex};
        if (!failure) failure = std::current_exception();
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
      pool.emplace_back(guarded, w);
    }
    guarded(0);  // the calling thread is worker 0
    for (std::thread& worker : pool) worker.join();
    if (failure) std::rethrow_exception(failure);
  }

  const std::uint64_t phase_end_ns = obs::monotonic_ns();

  // Fold per-worker accounting into the registry: a busy-time counter that
  // only ever grows plus a busy-fraction gauge for the phase just finished.
  // (The old `measure.worker_busy` up/down gauge was last-write-wins across
  // workers and therefore useless under contention.)
  std::uint64_t total_busy_ns = 0;
  for (const WorkerStats& entry : stats) total_busy_ns += entry.busy_ns;
  const std::uint64_t wall_ns = phase_end_ns - phase_start_ns;
  if (wall_ns > 0) {
    busy_fraction.set(static_cast<double>(total_busy_ns) /
                      (static_cast<double>(wall_ns) *
                       static_cast<double>(workers)));
  }
  busy_ms_total.inc(static_cast<std::uint64_t>(to_ms(total_busy_ns)));

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

  {
    // Canonical merge: schedule-order append, making the dataset identical
    // for every worker-pool size.
    const obs::Span merge_span{"merge"};
    const std::uint64_t merge_start_ns = obs::monotonic_ns();
    // Slots [0, skip_tasks) never ran. Reservation hints are exact: the
    // schedule told us the row count and the workers counted the hops.
    out.pings.reserve(out.pings.size() + (n - skip_tasks));
    out.traces.reserve(out.traces.size() + (n - skip_tasks));
    std::size_t hop_total = 0;
    for (std::size_t i = skip_tasks; i < n; ++i) hop_total += traces[i].hop_count;
    out.traces.reserve_hops(hop_total);
    for (std::size_t i = skip_tasks; i < n; ++i) {
      out.pings.push_back(pings[i]);
    }
    for (std::size_t i = skip_tasks; i < n; ++i) {
      const TraceSlot& slot = traces[i];
      out.traces.push_back(
          slot.core, std::span{worker_scratch_[slot.worker].hops}.subspan(
                         slot.hop_begin, slot.hop_count));
    }
    if (recorder.enabled()) {
      recorder.record_complete(
          "executor.merge", "executor", merge_start_ns,
          obs::monotonic_ns() - merge_start_ns,
          {{"tasks", static_cast<double>(n - skip_tasks)}});
    }
  }
  staging_high_water.set(static_cast<double>(staging_.high_water_bytes()));
}

}  // namespace cloudrtt::measure
