#include "store/io_env.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <system_error>

#include "obs/metrics.hpp"

namespace cloudrtt::store {

namespace {

namespace fs = std::filesystem;

[[nodiscard]] std::string errno_text() {
  return std::error_code{errno, std::generic_category()}.message();
}

void count_fsync() {
  obs::Registry::global().counter("store.fsyncs_total").inc();
}

/// Write the whole buffer, retrying on partial writes and EINTR.
[[nodiscard]] IoStatus write_all(int fd, std::string_view data,
                                 const fs::path& path) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ::ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoStatus{"write " + path.string() + ": " + errno_text()};
    }
    written += static_cast<std::size_t>(n);
  }
  return {};
}

[[nodiscard]] IoStatus fsync_fd(int fd, const fs::path& path) {
  count_fsync();
  if (::fsync(fd) != 0) {
    return IoStatus{"fsync " + path.string() + ": " + errno_text()};
  }
  return {};
}

/// fsync the directory holding `path` so a rename into it is durable.
[[nodiscard]] IoStatus fsync_parent(const fs::path& path) {
  const fs::path dir = path.parent_path().empty() ? fs::path{"."}
                                                  : path.parent_path();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return IoStatus{"open dir " + dir.string() + ": " + errno_text()};
  }
  IoStatus status = fsync_fd(fd, dir);
  ::close(fd);
  return status;
}

}  // namespace

IoStatus IoEnv::append(const fs::path& path, std::string_view data) {
  const int fd = ::open(path.c_str(),
                        O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return IoStatus{"open " + path.string() + ": " + errno_text()};
  }
  IoStatus status = write_all(fd, data, path);
  if (status.ok()) status = fsync_fd(fd, path);
  ::close(fd);
  return status;
}

IoStatus IoEnv::write_atomic(const fs::path& path, std::string_view data) {
  const fs::path tmp = path.string() + ".tmp";
  {
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) {
      return IoStatus{"open " + tmp.string() + ": " + errno_text()};
    }
    IoStatus status = write_all(fd, data, tmp);
    if (status.ok()) status = fsync_fd(fd, tmp);
    ::close(fd);
    if (!status.ok()) return status;
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    return IoStatus{"rename to " + path.string() + ": " + ec.message()};
  }
  return fsync_parent(path);
}

IoStatus IoEnv::truncate(const fs::path& path, std::uint64_t size) {
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    // Truncating a missing file to zero is a no-op, not an error.
    if (size == 0) return {};
    return IoStatus{"truncate " + path.string() + ": file does not exist"};
  }
  fs::resize_file(path, size, ec);
  if (ec) {
    return IoStatus{"truncate " + path.string() + ": " + ec.message()};
  }
  return {};
}

IoStatus IoEnv::remove(const fs::path& path) {
  std::error_code ec;
  fs::remove(path, ec);  // removing a missing file is fine
  if (ec) return IoStatus{"remove " + path.string() + ": " + ec.message()};
  return {};
}

IoStatus IoEnv::create_directories(const fs::path& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) return IoStatus{"mkdir " + path.string() + ": " + ec.message()};
  return {};
}

std::optional<std::uint64_t> IoEnv::file_size(const fs::path& path) const {
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (ec) return std::nullopt;
  return static_cast<std::uint64_t>(size);
}

std::optional<std::string> IoEnv::read_file(const fs::path& path) const {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::string content;
  char buffer[1 << 16];
  for (;;) {
    const ::ssize_t n = ::read(fd, buffer, sizeof buffer);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return std::nullopt;
    }
    if (n == 0) break;
    content.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return content;
}

IoStatus FaultyIoEnv::append(const fs::path& path, std::string_view data) {
  // ENOSPC first: a full disk trumps the probabilistic failures.
  if (faults_.disk_capacity_bytes > 0 &&
      bytes_written_ + data.size() > faults_.disk_capacity_bytes) {
    const std::uint64_t room =
        faults_.disk_capacity_bytes > bytes_written_
            ? faults_.disk_capacity_bytes - bytes_written_
            : 0;
    if (room > 0) {
      // Whatever fits lands as a torn tail, exactly like a real ENOSPC.
      (void)IoEnv::append(path, data.substr(0, room));
      bytes_written_ += room;
    }
    ++injected_;
    return IoStatus{"injected ENOSPC appending to " + path.string()};
  }
  if (faults_.append_error_rate > 0.0 &&
      rng_.chance(faults_.append_error_rate)) {
    ++injected_;
    return IoStatus{"injected EIO appending to " + path.string()};
  }
  if (faults_.short_write_rate > 0.0 && data.size() > 1 &&
      rng_.chance(faults_.short_write_rate)) {
    const std::uint64_t torn = 1 + rng_.below(data.size() - 1);
    (void)IoEnv::append(path, data.substr(0, torn));
    bytes_written_ += torn;
    ++injected_;
    return IoStatus{"injected short write (" + std::to_string(torn) + " of " +
                    std::to_string(data.size()) + " bytes) to " +
                    path.string()};
  }
  const IoStatus status = IoEnv::append(path, data);
  if (!status.ok()) return status;
  bytes_written_ += data.size();
  if (faults_.fsync_failure_rate > 0.0 &&
      rng_.chance(faults_.fsync_failure_rate)) {
    // The data is on disk but durability was never acknowledged; the caller
    // must treat the block as lost and re-append after truncating.
    ++injected_;
    return IoStatus{"injected fsync failure on " + path.string()};
  }
  return status;
}

IoStatus FaultyIoEnv::write_atomic(const fs::path& path,
                                   std::string_view data) {
  if (faults_.append_error_rate > 0.0 &&
      rng_.chance(faults_.append_error_rate)) {
    ++injected_;
    return IoStatus{"injected EIO writing " + path.string()};
  }
  const IoStatus status = IoEnv::write_atomic(path, data);
  if (status.ok()) bytes_written_ += data.size();
  return status;
}

}  // namespace cloudrtt::store
