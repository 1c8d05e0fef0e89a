#pragma once
// Injectable filesystem seam for the streaming store.
//
// Every byte the store persists flows through an IoEnv, so tests (and the
// CLI's --io-fault-profile) can inject the disk-failure modes a paper-scale
// campaign actually meets — EIO, torn appends, ENOSPC, lying fsyncs — while
// production runs use the plain POSIX implementation below. Reads are never
// faulted: recovery must be able to see whatever made it to disk.
//
// Durability contract:
//  * append()       open(O_APPEND) + write-all + fsync + close. Shard blocks
//                   rely on block framing + salvage, not atomicity: a torn
//                   append leaves a tail the next open truncates away.
//  * write_atomic() write to a .tmp sibling, fsync it, rename over the
//                   target, fsync the directory. The store's commit point
//                   (manifests): a crash leaves either the old or the new
//                   file, never a mix.

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>

#include "fault/plan.hpp"
#include "util/rng.hpp"

namespace cloudrtt::store {

/// Outcome of one I/O operation; `error` is empty on success.
struct IoStatus {
  std::string error;
  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Plain POSIX filesystem operations. Virtual so FaultyIoEnv (and tests) can
/// interpose on the write path.
class IoEnv {
 public:
  IoEnv() = default;
  IoEnv(const IoEnv&) = delete;
  IoEnv& operator=(const IoEnv&) = delete;
  virtual ~IoEnv() = default;

  /// Append `data` to `path` (created if missing), fsync before returning.
  [[nodiscard]] virtual IoStatus append(const std::filesystem::path& path,
                                        std::string_view data);

  /// Write `data` via .tmp + fsync + atomic rename + directory fsync.
  [[nodiscard]] virtual IoStatus write_atomic(const std::filesystem::path& path,
                                              std::string_view data);

  /// Shrink `path` to `size` bytes (salvage truncating a torn tail).
  [[nodiscard]] virtual IoStatus truncate(const std::filesystem::path& path,
                                          std::uint64_t size);

  [[nodiscard]] virtual IoStatus remove(const std::filesystem::path& path);

  [[nodiscard]] virtual IoStatus create_directories(
      const std::filesystem::path& path);

  /// Size of `path`, or nullopt when it does not exist.
  [[nodiscard]] virtual std::optional<std::uint64_t> file_size(
      const std::filesystem::path& path) const;

  /// Whole-file read; nullopt when missing/unreadable. Never faulted. The
  /// store reads only manifests this way: shard files go through the block
  /// reader in salvage.cpp, which holds one block at a time.
  [[nodiscard]] virtual std::optional<std::string> read_file(
      const std::filesystem::path& path) const;
};

/// IoEnv decorator that injects disk faults per fault::IoFaults. Draws are
/// deterministic given the seed, but carry no cross-resume contract: I/O
/// faults decide what is durable, never what the dataset contains.
class FaultyIoEnv final : public IoEnv {
 public:
  FaultyIoEnv(const fault::IoFaults& faults, std::uint64_t seed)
      : faults_(faults), rng_(seed) {}

  [[nodiscard]] IoStatus append(const std::filesystem::path& path,
                                std::string_view data) override;
  [[nodiscard]] IoStatus write_atomic(const std::filesystem::path& path,
                                      std::string_view data) override;

  /// Clear the fault intensities — the disk "recovers" (tests drive the
  /// degrade-don't-die catch-up path with this).
  void heal() { faults_ = fault::IoFaults{}; }

  /// Injected failures so far (tests assert the chaos actually happened).
  [[nodiscard]] std::uint64_t faults_injected() const { return injected_; }

 private:
  fault::IoFaults faults_;
  util::Rng rng_;
  std::uint64_t bytes_written_ = 0;  ///< ENOSPC accounting
  std::uint64_t injected_ = 0;
};

}  // namespace cloudrtt::store
