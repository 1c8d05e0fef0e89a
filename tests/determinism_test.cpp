// Reproducibility gate: the same seed must yield the same dataset, bit for
// bit, whether the campaign runs straight through or is killed and resumed
// from a checkpoint. The comparison is on core::dataset_hash — the FNV-1a
// fold of the full canonical CSV export — which is exactly what CI's
// double-run gate checks via `cloudrtt study --dataset-hash`.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "core/export.hpp"
#include "core/scale.hpp"
#include "core/study.hpp"
#include "fault/plan.hpp"
#include "store/io_env.hpp"
#include "store/salvage.hpp"

namespace cloudrtt {
namespace {

namespace fs = std::filesystem;

/// Small campaign with faults on — the hardest case for reproducibility,
/// since fault episodes reshuffle the per-day schedule.
[[nodiscard]] core::StudyConfig gate_config(std::uint64_t seed) {
  core::StudyConfig config;
  config.seed = seed;
  config.sc_probes = 1200;
  config.include_atlas = false;
  config.sc_campaign.days = 3;
  config.sc_campaign.daily_budget = 2000;
  config.sc_campaign.case_study_probes = 5;
  config.fault_profile = fault::FaultProfile::Mild;
  return config;
}

/// gate_config(23)'s hash as a literal. Every other case compares hashes
/// with each other, which a change to the canonical bytes made the same way
/// everywhere would pass; the hash is defined by those bytes, so this only
/// moves in a deliberate re-baseline recorded in CHANGES.md.
constexpr std::string_view kPinnedGateHash = "55db675c69cefedb";

/// Hash of a fresh, uninterrupted run of gate_config(23). Computed once and
/// shared across cases (the suite runs as one ctest entry, like integration).
[[nodiscard]] std::uint64_t baseline_hash() {
  static const std::uint64_t hash = [] {
    core::Study study{gate_config(23)};
    study.run();
    return core::dataset_hash(study.sc_dataset());
  }();
  return hash;
}

TEST(DeterminismGate, SameSeedTwiceHashesIdentically) {
  core::Study second{gate_config(23)};
  second.run();
  EXPECT_EQ(core::format_dataset_hash(baseline_hash()),
            core::format_dataset_hash(core::dataset_hash(second.sc_dataset())));
}

TEST(DeterminismGate, InMemoryHashMatchesPinnedLiteral) {
  EXPECT_EQ(core::format_dataset_hash(baseline_hash()), kPinnedGateHash);
}

TEST(DeterminismGate, DifferentSeedsHashDifferently) {
  core::Study other{gate_config(24)};
  other.run();
  EXPECT_NE(baseline_hash(), core::dataset_hash(other.sc_dataset()));
}

TEST(DeterminismGate, KillAndResumeHashesLikeUninterruptedRun) {
  const fs::path dir = fs::path{::testing::TempDir()} / "cloudrtt_det_gate";
  fs::remove_all(dir);

  core::Study killed{gate_config(23)};
  core::RunControl first;
  first.checkpoint_dir = dir.string();
  first.stop_after_day = 2;
  killed.run(first);
  EXPECT_FALSE(killed.completed());
  store::IoEnv io;
  ASSERT_EQ(store::manifest_format(dir, "speedchecker", io), 4);

  core::Study resumed{gate_config(23)};
  core::RunControl second;
  second.checkpoint_dir = dir.string();
  second.resume = true;
  resumed.run(second);
  ASSERT_TRUE(resumed.completed());

  EXPECT_EQ(core::format_dataset_hash(baseline_hash()),
            core::format_dataset_hash(core::dataset_hash(resumed.sc_dataset())));
  fs::remove_all(dir);
}

// Regression: router addressing is pre-materialized at world construction
// and each platform forks its own RNG stream, so a kill+resume cycle with
// Atlas enabled must land on exactly the uninterrupted run's bits — no
// allocation-order coupling between the campaigns is allowed to survive.
TEST(DeterminismGate, KillAndResumeWithAtlasHashesIdentically) {
  const auto config = [] {
    core::StudyConfig c = gate_config(23);
    c.include_atlas = true;
    c.atlas_probes = 400;
    c.atlas_campaign.days = 3;
    c.atlas_campaign.daily_budget = 900;
    return c;
  };
  const fs::path dir = fs::path{::testing::TempDir()} / "cloudrtt_det_atlas";
  fs::remove_all(dir);

  core::Study uninterrupted{config()};
  uninterrupted.run();
  ASSERT_TRUE(uninterrupted.completed());

  core::Study killed{config()};
  core::RunControl first;
  first.checkpoint_dir = dir.string();
  first.stop_after_day = 2;
  killed.run(first);
  EXPECT_FALSE(killed.completed());

  core::Study resumed{config()};
  core::RunControl second;
  second.checkpoint_dir = dir.string();
  second.resume = true;
  resumed.run(second);
  ASSERT_TRUE(resumed.completed());

  EXPECT_EQ(core::dataset_hash(uninterrupted.sc_dataset()),
            core::dataset_hash(resumed.sc_dataset()));
  EXPECT_EQ(core::dataset_hash(uninterrupted.atlas_dataset()),
            core::dataset_hash(resumed.atlas_dataset()));
  fs::remove_all(dir);
}

// Columnar-core gate: the SoA dataset must hash identically regardless of
// worker-thread count. Two seeds guard against a lucky collision on one.
TEST(DeterminismGate, ThreadCountDoesNotChangeHashAcrossSeeds) {
  for (const std::uint64_t seed : {23ULL, 57ULL}) {
    core::StudyConfig one = gate_config(seed);
    one.threads = 1;
    core::Study serial{one};
    serial.run();

    core::StudyConfig eight = gate_config(seed);
    eight.threads = 8;
    core::Study parallel{eight};
    parallel.run();

    EXPECT_EQ(core::format_dataset_hash(core::dataset_hash(serial.sc_dataset())),
              core::format_dataset_hash(core::dataset_hash(parallel.sc_dataset())))
        << "seed " << seed;
  }
}

// Streaming gate: a streamed run keeps no rows in memory, so its hash comes
// from a day-ordered scan of the store — and must be bit-identical to the
// in-memory hash of a non-streamed run of the same config.
TEST(DeterminismGate, StreamedRunHashesLikeInMemoryRun) {
  const fs::path dir = fs::path{::testing::TempDir()} / "cloudrtt_det_stream";
  fs::remove_all(dir);

  core::Study streamed{gate_config(23)};
  core::RunControl control;
  control.checkpoint_dir = dir.string();
  control.stream = true;
  streamed.run(control);
  ASSERT_TRUE(streamed.completed());
  ASSERT_TRUE(streamed.streamed());

  store::IoEnv io;
  const core::StreamedHashResult from_store = core::streamed_dataset_hash(
      dir, "speedchecker", io, &streamed.sc_fleet(), nullptr);
  ASSERT_TRUE(from_store.ok()) << from_store.error;
  EXPECT_GT(from_store.rows, 0u);

  EXPECT_EQ(core::format_dataset_hash(baseline_hash()),
            core::format_dataset_hash(from_store.hash));
  EXPECT_EQ(core::format_dataset_hash(from_store.hash), kPinnedGateHash);
  fs::remove_all(dir);
}

// Paper-scale gate: the full 115k/8.5k-probe fleet with a truncated campaign
// (2 days, small budget) so the test stays seconds, not minutes. A streamed
// kill+resume cycle must land on exactly the bits of an uninterrupted
// streamed run — the invariant `cloudrtt run --scale paper` depends on.
TEST(DeterminismGate, PaperScaleStreamedKillAndResumeHashesIdentically) {
  const auto paper_config = [] {
    core::StudyConfig config;
    config.seed = 57;
    const core::ScaleSpec spec = core::parse_scale("paper");
    core::apply_scale(config, spec);
    config.include_atlas = false;
    config.sc_campaign.days = 2;           // truncated: the gate is about
    config.sc_campaign.daily_budget = 2500;  // resume bits, not paper volume
    config.sc_campaign.case_study_probes = 5;
    return config;
  };

  const fs::path base = fs::path{::testing::TempDir()} / "cloudrtt_det_paper";
  const fs::path straight_dir = base / "straight";
  const fs::path resumed_dir = base / "resumed";
  fs::remove_all(base);

  core::Study straight{paper_config()};
  core::RunControl whole;
  whole.checkpoint_dir = straight_dir.string();
  whole.stream = true;
  straight.run(whole);
  ASSERT_TRUE(straight.completed());
  // Fleet generation may reject a handful of draws; "paper scale" means the
  // 115k-probe ballpark, not an exact count.
  EXPECT_GT(straight.sc_fleet().probes().size(), 110000u);

  core::Study killed{paper_config()};
  core::RunControl first;
  first.checkpoint_dir = resumed_dir.string();
  first.stream = true;
  first.stop_after_day = 1;
  killed.run(first);
  EXPECT_FALSE(killed.completed());

  core::Study resumed{paper_config()};
  core::RunControl second;
  second.checkpoint_dir = resumed_dir.string();
  second.stream = true;
  second.resume = true;
  resumed.run(second);
  ASSERT_TRUE(resumed.completed());

  store::IoEnv io;
  const core::StreamedHashResult uninterrupted = core::streamed_dataset_hash(
      straight_dir, "speedchecker", io, &straight.sc_fleet(), nullptr);
  const core::StreamedHashResult spliced = core::streamed_dataset_hash(
      resumed_dir, "speedchecker", io, &resumed.sc_fleet(), nullptr);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.error;
  ASSERT_TRUE(spliced.ok()) << spliced.error;
  EXPECT_GT(uninterrupted.rows, 0u);
  EXPECT_EQ(uninterrupted.rows, spliced.rows);
  EXPECT_EQ(core::format_dataset_hash(uninterrupted.hash),
            core::format_dataset_hash(spliced.hash));
  fs::remove_all(base);
}

TEST(DeterminismGate, HashFormatIsSixteenHexDigits) {
  EXPECT_EQ(core::format_dataset_hash(0), "0000000000000000");
  EXPECT_EQ(core::format_dataset_hash(0xcbf29ce484222325ULL), "cbf29ce484222325");
  const std::string formatted = core::format_dataset_hash(0xdeadbeefULL);
  EXPECT_EQ(formatted, "00000000deadbeef");
}

}  // namespace
}  // namespace cloudrtt
