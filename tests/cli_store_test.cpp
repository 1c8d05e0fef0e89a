// The cloudrtt binary run as an operator runs it: a checkpoint directory
// whose manifest was emptied next to a shard of committed rows must make
// `--fsck` exit 1 and `--resume` exit 1 without touching a file, and a scale
// it does not know must end `study` with one line before anything runs.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "util/rng.hpp"

namespace cloudrtt {
namespace {

namespace fs = std::filesystem;

/// Exit status of `command` run through the shell; -1 when it did not exit.
[[nodiscard]] int run(const std::string& command) {
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

[[nodiscard]] std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

/// Every file under `dir`, by name, with the FNV-1a of its bytes.
[[nodiscard]] std::map<std::string, std::uint64_t> dir_digests(
    const fs::path& dir) {
  std::map<std::string, std::uint64_t> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    files[entry.path().filename().string()] =
        util::fnv1a(read_file(entry.path()));
  }
  return files;
}

TEST(CliStore, EmptiedManifestFailsFsckAndResume) {
  const fs::path work = fs::path{::testing::TempDir()} / "cloudrtt_cli_store";
  fs::remove_all(work);
  fs::create_directories(work);
  const fs::path store = work / "store";
  const std::string cli = CLOUDRTT_CLI;
  const std::string study = cli + " study --sc-probes 200 --days 2 --quiet" +
                            " --no-export --checkpoint-dir " + store.string() +
                            " --out " + (work / "out").string();
  const std::string fsck = cli + " study --checkpoint-dir " + store.string() +
                           " --fsck > " + (work / "fsck.txt").string() +
                           " 2>&1";

  ASSERT_EQ(run(study + " --stop-after-day 1 > /dev/null"), 0);
  ASSERT_EQ(run(fsck), 0) << read_file(work / "fsck.txt");

  { std::ofstream emptied{store / "speedchecker.manifest", std::ios::trunc}; }
  ASSERT_GT(fs::file_size(store / "speedchecker.shard"), 0u);
  const std::map<std::string, std::uint64_t> before = dir_digests(store);

  EXPECT_EQ(run(fsck), 1);
  const std::string report = read_file(work / "fsck.txt");
  EXPECT_NE(report.find("speedchecker: DAMAGED"), std::string::npos)
      << report;

  EXPECT_EQ(run(study + " --resume > /dev/null 2>&1"), 1);
  EXPECT_EQ(dir_digests(store), before);
  fs::remove_all(work);
}

// `--scale 0.1`, the retired spelling of 600x150, exits 1 with one line that
// names the scale, and writes nothing.
TEST(CliScale, BareMultiplierIsRefused) {
  const fs::path work = fs::path{::testing::TempDir()} / "cloudrtt_cli_scale";
  fs::remove_all(work);
  fs::create_directories(work);
  const std::string cli = CLOUDRTT_CLI;
  EXPECT_EQ(run(cli + " study --scale 0.1 --quiet --out " +
                (work / "out").string() + " > /dev/null 2> " +
                (work / "err.txt").string()),
            1);
  const std::string error = read_file(work / "err.txt");
  EXPECT_NE(error.find("scale '0.1'"), std::string::npos) << error;
  EXPECT_EQ(std::count(error.begin(), error.end(), '\n'), 1) << error;
  EXPECT_FALSE(fs::exists(work / "out"));
  fs::remove_all(work);
}

// The same spelling from CLOUDRTT_SCALE: the one line names the variable.
TEST(CliScale, EnvironmentScaleIsRefusedByName) {
  const fs::path work = fs::path{::testing::TempDir()} / "cloudrtt_cli_env";
  fs::remove_all(work);
  fs::create_directories(work);
  const std::string cli = CLOUDRTT_CLI;
  EXPECT_EQ(run("CLOUDRTT_SCALE=0.1 " + cli + " study --quiet --out " +
                (work / "out").string() + " > /dev/null 2> " +
                (work / "err.txt").string()),
            1);
  const std::string error = read_file(work / "err.txt");
  EXPECT_EQ(error.rfind("CLOUDRTT_SCALE: ", 0), 0u) << error;
  EXPECT_NE(error.find("scale '0.1'"), std::string::npos) << error;
  EXPECT_EQ(std::count(error.begin(), error.end(), '\n'), 1) << error;
  EXPECT_FALSE(fs::exists(work / "out"));
  fs::remove_all(work);
}

}  // namespace
}  // namespace cloudrtt
