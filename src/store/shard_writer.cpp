#include "store/shard_writer.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "measure/executor.hpp"
#include "obs/log.hpp"
#include "util/check.hpp"

namespace cloudrtt::store {

namespace {

namespace fs = std::filesystem;

// The campaign hands each day on in executor batches. Batches that start on
// a block boundary frame the blocks one append of the whole day would.
static_assert(measure::ParallelExecutor::kBatchTasks % kBlockTasks == 0,
              "an executor batch must hold whole store blocks");

obs::Registry& registry() { return obs::Registry::global(); }

/// `<platform>.s<N>.shard` under `dir`: the lane files of a format=3 store.
[[nodiscard]] std::vector<fs::path> legacy_lane_files(
    const fs::path& dir, std::string_view platform) {
  std::vector<fs::path> lanes;
  const std::string prefix = std::string{platform} + ".s";
  constexpr std::string_view kSuffix = ".shard";
  std::error_code ec;
  for (fs::directory_iterator it{dir, ec}, end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() <= prefix.size() + kSuffix.size() ||
        !name.starts_with(prefix) || !name.ends_with(kSuffix)) {
      continue;
    }
    const std::string_view lane{name.data() + prefix.size(),
                                name.size() - prefix.size() - kSuffix.size()};
    if (std::all_of(lane.begin(), lane.end(),
                    [](char c) { return c >= '0' && c <= '9'; })) {
      lanes.push_back(it->path());
    }
  }
  return lanes;
}

}  // namespace

ShardWriter::ShardWriter(fs::path dir, StoreMeta meta, IoEnv& io, bool fresh)
    : dir_(std::move(dir)),
      meta_(std::move(meta)),
      io_(io),
      spill_bytes_(registry().counter("store.spill_bytes_total")),
      spill_blocks_(registry().counter("store.spill_blocks_total")),
      append_failures_(registry().counter("store.append_failures_total")),
      commits_(registry().counter("store.commits_total")),
      commits_skipped_(registry().counter("store.commits_skipped_total")),
      commit_failures_(registry().counter("store.commit_failures_total")),
      pending_blocks_gauge_(registry().gauge("store.pending_blocks")),
      pending_bytes_gauge_(registry().gauge("store.pending_bytes")),
      degraded_gauge_(registry().gauge("store.degraded")) {
  const IoStatus made = io_.create_directories(dir_);
  if (!made.ok()) {
    enter_degraded(made.error);
  }
  if (fresh) {
    // A non-resume run starts over: drop the manifest first (the commit
    // point), then the data files it described — the shard, and the lane
    // files a legacy format=3 store split it into — so a crash mid-wipe can
    // never resurrect a half-deleted store.
    (void)io_.remove(manifest_path());
    (void)io_.remove(shard_path());
    for (const fs::path& lane : legacy_lane_files(dir_, meta_.platform)) {
      (void)io_.remove(lane);
    }
  }
  // Everything above happens-before the worker's first load: thread start
  // synchronises, and every later handoff goes through mutex_.
  worker_ = std::thread{[this] { worker_loop(); }};
}

ShardWriter::~ShardWriter() {
  drain();
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    stop_ = true;
  }
  work_cv_.notify_all();
  worker_.join();
}

void ShardWriter::restore(const ShardState& shard,
                          std::uint64_t durable_tasks) {
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    CLOUDRTT_CHECK(!started_,
                   "restore() must run before the first append/commit");
  }
  shard_ = shard;
  alloc_seq_ = shard.next_seq;
  durable_tasks_ = durable_tasks;
}

void ShardWriter::enqueue(Job job) {
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    started_ = true;
    jobs_.push_back(std::move(job));
  }
  work_cv_.notify_one();
}

bool ShardWriter::append_day(std::uint32_t day, std::size_t day_start_cursor,
                             std::uint32_t first_task,
                             const measure::Dataset& data,
                             std::size_t ping_begin, std::size_t trace_begin) {
  CLOUDRTT_CHECK(data.pings.size() - ping_begin ==
                     data.traces.size() - trace_begin,
                 "a day's ping and trace counts must match 1:1");
  // Copy the row slice off the campaign thread — the caller may clear its
  // dataset the moment this returns (streaming mode does), and the worker
  // serialises at its own pace. A columnar splice is a fixed number of bulk
  // vector copies; the fresh job dataset adopts the source binding so the
  // codes transfer verbatim.
  Job job;
  job.day = day;
  job.cursor = day_start_cursor;
  job.first_task = first_task;
  job.rows.append_slice(data, ping_begin, data.pings.size(), trace_begin,
                        data.traces.size());
  enqueue(std::move(job));
  return !degraded();
}

bool ShardWriter::commit(const measure::CampaignState& state) {
  Job job;
  job.kind = Job::Kind::Commit;
  job.state = state;
  enqueue(std::move(job));
  return !degraded();
}

bool ShardWriter::adopt(const measure::Dataset& data,
                        const measure::CampaignState& state) {
  CLOUDRTT_CHECK(data.pings.size() == data.traces.size(),
                 "adopted dataset must pair pings and traces 1:1");
  // Rows arrive in canonical campaign order: grouped by day, days ascending,
  // pings and traces advancing in lockstep. Stream each day's contiguous
  // segment; cursor/first_task are 0 because adopted blocks always start a
  // day (`data` holds whole days only).
  std::size_t begin = 0;
  while (begin < data.pings.size()) {
    const std::uint32_t day = data.pings.day(begin);
    std::size_t end = begin;
    while (end < data.pings.size() && data.pings.day(end) == day) ++end;
    CLOUDRTT_CHECK(data.traces.day(begin) == day &&
                       data.traces.day(end - 1) == day,
                   "adopted pings and traces disagree on day boundaries");
    // Carve the day into its own dataset so the job copies exactly that
    // day's rows (adoption is off the campaign path; the extra splice is
    // fine).
    measure::Dataset day_rows;
    day_rows.append_slice(data, begin, end, begin, end);
    (void)append_day(day, 0, 0, day_rows, 0, 0);
    begin = end;
  }
  (void)commit(state);
  drain();
  return !degraded();
}

void ShardWriter::drain() {
  std::unique_lock<std::mutex> lock{mutex_};
  // Not through enqueue(): closing a day is no write of the caller's, so a
  // drain before restore() stays legal.
  Job close;
  close.kind = Job::Kind::Close;
  jobs_.push_back(std::move(close));
  work_cv_.notify_one();
  idle_cv_.wait(lock, [this] { return jobs_.empty() && !worker_busy_; });
}

void ShardWriter::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock{mutex_};
      work_cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // stop_ set and nothing left to retire
      job = std::move(jobs_.front());
      jobs_.pop_front();
      worker_busy_ = true;
    }
    switch (job.kind) {
      case Job::Kind::Rows:
        do_append_rows(job);
        break;
      case Job::Kind::Commit:
        do_commit(job.state);
        break;
      case Job::Kind::Close:
        if (open_day_) close_day();
        break;
    }
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      worker_busy_ = false;
      if (jobs_.empty()) idle_cv_.notify_all();
    }
  }
}

void ShardWriter::DayBytes::append(std::string_view bytes) {
  if (bytes.empty()) return;
  if (size_ + bytes.size() > capacity_) {
    const std::size_t grown_capacity =
        std::max(size_ + bytes.size(), capacity_ + capacity_ / 2);
    void* grown = std::realloc(data_, grown_capacity);
    if (grown == nullptr) throw std::bad_alloc{};
    data_ = static_cast<char*>(grown);
    capacity_ = grown_capacity;
  }
  std::memcpy(data_ + size_, bytes.data(), bytes.size());
  size_ += bytes.size();
}

void ShardWriter::do_append_rows(const Job& job) {
  if (open_day_ && *open_day_ != job.day) close_day();
  const std::size_t tasks = job.rows.pings.size();
  if (!open_day_) {
    open_day_ = job.day;
    open_.bytes = std::move(spare_bytes_);
    open_.bytes.clear();
  }
  open_.rows += tasks;
  for (std::size_t begin = 0; begin < tasks; begin += kBlockTasks) {
    const std::size_t count = std::min(kBlockTasks, tasks - begin);
    payload_scratch_.clear();
    for (std::size_t i = begin; i < begin + count; ++i) {
      serialize_task(payload_scratch_, job.rows, i);
    }
    BlockHeader header;
    header.seq = alloc_seq_++;
    header.day = job.day;
    header.start = job.first_task + static_cast<std::uint32_t>(begin);
    header.tasks = static_cast<std::uint32_t>(count);
    header.cursor = job.cursor;
    header.bytes = payload_scratch_.size();
    header.fnv1a = block_checksum(header, payload_scratch_);
    open_.bytes.append(format_block_header(header));
    open_.bytes.append(payload_scratch_);
    ++open_.blocks;
  }
}

void ShardWriter::close_day() {
  if (open_.blocks > 0) {
    pending_bytes_ += open_.bytes.size();
    pending_block_count_ += open_.blocks;
    pending_.push_back(std::move(open_));
  }
  open_ = PendingAppend{};
  open_day_.reset();
  (void)flush();
}

bool ShardWriter::flush() {
  while (!pending_.empty()) {
    const PendingAppend& entry = pending_.front();
    const fs::path path = shard_path();
    if (torn_) {
      // A previous append may have left torn bytes past the durable mark;
      // cut them off so the retry lands at a block boundary.
      const IoStatus cut = io_.truncate(path, shard_.durable_bytes);
      if (!cut.ok()) {
        enter_degraded(cut.error);
        return false;
      }
      torn_ = false;
    }
    // One append + fsync per entry: a day's blocks were framed into a
    // single buffer when serialised, so the healthy path never re-copies
    // them, and a degraded backlog drains one day at a time.
    const IoStatus status = io_.append(path, entry.bytes.view());
    if (!status.ok()) {
      // Even a "failed" append may have written a prefix (short write,
      // ENOSPC) or written everything without durability (fsync failure):
      // assume the worst and truncate before the next retry.
      torn_ = true;
      append_failures_.inc();
      enter_degraded(status.error);
      return false;
    }
    shard_.durable_bytes += entry.bytes.size();
    shard_.next_seq += entry.blocks;
    durable_tasks_ += entry.rows;
    spill_bytes_.inc(entry.bytes.size());
    spill_blocks_.inc(entry.blocks);
    pending_bytes_ -= entry.bytes.size();
    pending_block_count_ -= entry.blocks;
    spare_bytes_ = std::move(pending_.front().bytes);
    pending_.pop_front();
  }
  pending_count_.store(0, std::memory_order_relaxed);
  pending_blocks_gauge_.set(0.0);
  pending_bytes_gauge_.set(0.0);
  if (degraded()) {
    degraded_.store(false, std::memory_order_relaxed);
    degraded_gauge_.set(0.0);
    CLOUDRTT_LOG_INFO("store.recovered", {"platform", meta_.platform},
                      {"dir", dir_.string()});
  }
  return true;
}

void ShardWriter::enter_degraded(const std::string& reason) {
  pending_count_.store(static_cast<std::size_t>(pending_block_count_),
                       std::memory_order_relaxed);
  pending_blocks_gauge_.set(static_cast<double>(pending_block_count_));
  pending_bytes_gauge_.set(static_cast<double>(pending_bytes_));
  if (!degraded()) {
    degraded_.store(true, std::memory_order_relaxed);
    degraded_gauge_.set(1.0);
    CLOUDRTT_LOG_WARN("store.degraded", {"platform", meta_.platform},
                      {"reason", reason},
                      {"pending_blocks", pending_block_count_},
                      {"pending_bytes", pending_bytes_});
  }
}

void ShardWriter::do_commit(const measure::CampaignState& state) {
  if (open_day_) close_day();
  if (!flush()) {
    // The manifest must never advance past data the disk refused: skip the
    // commit and let a later day (or the final commit) catch up.
    commits_skipped_.inc();
    return;
  }
  std::string manifest;
  manifest.reserve(256);
  manifest += "format=4\n";
  manifest += "platform=" + meta_.platform + '\n';
  manifest += "seed=" + std::to_string(meta_.seed) + '\n';
  manifest += "fault_profile=" + meta_.fault_profile + '\n';
  manifest += "next_day=" + std::to_string(state.next_day) + '\n';
  manifest += "cursor=" + std::to_string(state.cursor) + '\n';
  manifest +=
      "day_tasks_done=" + std::to_string(state.day_tasks_done) + '\n';
  manifest += "tasks=" + std::to_string(durable_tasks_) + '\n';
  manifest += "shard=" + std::to_string(shard_.durable_bytes) + ':' +
              std::to_string(shard_.next_seq) + '\n';
  const IoStatus status = io_.write_atomic(manifest_path(), manifest);
  if (!status.ok()) {
    commit_failures_.inc();
    enter_degraded(status.error);
    return;
  }
  commits_.inc();
}

}  // namespace cloudrtt::store
