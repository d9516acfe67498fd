// StreamSupervisor recovery semantics: checkpoint restore (including the
// corrupt-newest fallback), IO retries, the epoch budget and the
// degradation ladder's tier effects. IO faults are driven
// deterministically through the fail-point registry.

#include "robust/supervisor.h"

#include <unistd.h>

#include <chrono>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "obs/health.h"
#include "robust/failpoints.h"

namespace commsig {
namespace {

namespace fs = std::filesystem;

constexpr NodeId kNumNodes = 20;

/// Deterministic synthetic stream: each of 8 sources talks mostly to one
/// favourite plus a rotating side channel.
std::vector<TraceEvent> MakeEvents(uint64_t n) {
  std::vector<TraceEvent> events;
  events.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const NodeId src = static_cast<NodeId>(i % 8);
    const NodeId dst = static_cast<NodeId>(
        8 + (i % 13 == 0 ? (i / 13) % (kNumNodes - 8) : src));
    events.push_back({src, dst, i, 1.0 + static_cast<double>(i % 5)});
  }
  return events;
}

std::vector<NodeId> Focal() { return {0, 1, 2, 3, 4, 5, 6, 7}; }

/// Canonical end-state comparison: the builder's serialized bytes cover
/// sketches, heavy hitters and history, so equality here is bit-identical
/// signatures.
std::string BuilderBytes(const StreamSupervisor& supervisor) {
  ByteWriter out;
  supervisor.builder()->AppendTo(out);
  return std::move(out).Take();
}

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (failpoints::Enabled()) FailPointRegistry::Global().Reset();
    obs::HealthRegistry::Global().Reset();
    dir_ = fs::temp_directory_path() /
           ("commsig_sup_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override {
    if (failpoints::Enabled()) FailPointRegistry::Global().Reset();
    obs::HealthRegistry::Global().Reset();
    fs::remove_all(dir_);
  }

  StreamSupervisor::Options BaseOptions(const std::string& checkpoint_dir) {
    StreamSupervisor::Options opts;
    opts.checkpoint_every = 200;
    opts.emit_every = 0;
    opts.checkpoint_dir = checkpoint_dir;
    opts.retry.max_attempts = 4;
    opts.retry.initial_backoff_ms = 0;  // tests must not sleep
    opts.retry.max_backoff_ms = 0;
    return opts;
  }

  /// The reference end state: one fault-free, checkpoint-free run.
  std::string ReferenceBytes(const std::vector<TraceEvent>& events) {
    StreamSupervisor reference(Focal(), BaseOptions(""));
    StreamRunReport report = reference.Run(events);
    EXPECT_FALSE(report.killed);
    EXPECT_EQ(report.events_processed, events.size());
    return BuilderBytes(reference);
  }

  fs::path dir_;
};

TEST_F(SupervisorTest, FingerprintIsOrderAndContentSensitive) {
  auto events = MakeEvents(50);
  const uint64_t fp = StreamSupervisor::FingerprintEvents(events);
  EXPECT_EQ(StreamSupervisor::FingerprintEvents(events), fp);
  auto edited = events;
  edited[10].weight += 1.0;
  EXPECT_NE(StreamSupervisor::FingerprintEvents(edited), fp);
  auto swapped = events;
  std::swap(swapped[0], swapped[1]);
  EXPECT_NE(StreamSupervisor::FingerprintEvents(swapped), fp);
}

TEST_F(SupervisorTest, FaultFreeRunProcessesEverything) {
  auto events = MakeEvents(1000);
  StreamSupervisor supervisor(Focal(), BaseOptions(dir_.string()));
  StreamRunReport report = supervisor.Run(events);
  EXPECT_FALSE(report.killed);
  EXPECT_EQ(report.start_event, 0u);
  EXPECT_EQ(report.events_processed, 1000u);
  EXPECT_EQ(report.final_position, 1000u);
  // 200..1000 in-loop plus the end-of-run save (which rewrites seq 1000).
  EXPECT_EQ(report.checkpoints_saved, 6u);
  EXPECT_EQ(report.final_tier, DegradationTier::kOk);
  EXPECT_EQ(BuilderBytes(supervisor), ReferenceBytes(events));
}

TEST_F(SupervisorTest, ReplayRatePacesAgainstTheStreamTimestamps) {
  // 300 events spanning 300 trace-time units at 3000x => ~100 ms of wall
  // clock. The schedule is absolute, so total elapsed time is what the
  // rate implies regardless of per-event processing cost.
  auto events = MakeEvents(300);
  StreamSupervisor::Options opts = BaseOptions("");
  opts.replay_rate = 3000.0;
  StreamSupervisor supervisor(Focal(), opts);
  const auto start = std::chrono::steady_clock::now();
  StreamRunReport report = supervisor.Run(events);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_EQ(report.events_processed, events.size());
  // Generous lower bound (the schedule implies ~100 ms) to stay robust on
  // loaded CI machines; no upper bound — pacing never blocks completion.
  EXPECT_GE(elapsed.count(), 60);
  // Pacing must not change the computed state.
  EXPECT_EQ(BuilderBytes(supervisor), ReferenceBytes(events));
}

TEST_F(SupervisorTest, OverBudgetEpochsDegradeWithNoFailPointArmed) {
  // Two 2000-event epochs, each observed in well over 1 us: the budget
  // alone must step the ladder twice, with nothing armed.
  auto events = MakeEvents(4000);
  StreamSupervisor::Options opts = BaseOptions("");
  opts.checkpoint_every = 2000;
  opts.epoch_budget_us = 1;
  opts.degrade.escalate_after = 1;
  StreamSupervisor supervisor(Focal(), opts);
  StreamRunReport report = supervisor.Run(events);
  EXPECT_EQ(report.epochs, 2u);
  EXPECT_EQ(report.final_tier, DegradationTier::kWidenCheckpoints);
  // Degrading sheds overhead, never results.
  EXPECT_EQ(BuilderBytes(supervisor), ReferenceBytes(events));
}

TEST_F(SupervisorTest, ReplayPacingDoesNotCountAgainstTheBudget) {
  // ~100 ms of pacing sleeps over two epochs, each far over a 20 ms budget
  // by wall clock. The budget counts observe time only, so both epochs
  // are healthy.
  auto events = MakeEvents(300);
  StreamSupervisor::Options opts = BaseOptions("");
  opts.replay_rate = 3000.0;
  opts.epoch_budget_us = 20000;
  opts.degrade.escalate_after = 1;
  StreamSupervisor supervisor(Focal(), opts);
  StreamRunReport report = supervisor.Run(events);
  EXPECT_EQ(report.events_processed, events.size());
  EXPECT_EQ(report.final_tier, DegradationTier::kOk);
}

TEST_F(SupervisorTest, StretchedCadenceSaturatesInsteadOfWrapping) {
  auto events = MakeEvents(400);
  // Every 100-event epoch is over a 1 us budget, so the first two escalate
  // to widen_checkpoints. (2^63 + 1) * 2 wraps to 2 in uint64_t, so an
  // unsaturated cadence would checkpoint every 2 events from then on.
  auto opts = BaseOptions(dir_.string());
  opts.checkpoint_every = (uint64_t{1} << 63) + 1;
  opts.emit_every = 100;
  opts.epoch_budget_us = 1;
  opts.degrade.escalate_after = 1;
  opts.degrade.checkpoint_stretch = 2;
  StreamSupervisor supervisor(Focal(), std::move(opts));
  StreamRunReport report = supervisor.Run(events);
  EXPECT_GE(report.final_tier, DegradationTier::kWidenCheckpoints);
  EXPECT_EQ(report.events_processed, 400u);
  EXPECT_EQ(report.epochs, 4u);
  EXPECT_EQ(report.checkpoints_saved, 1u);  // the end-of-run save only
}

TEST_F(SupervisorTest, KillAndResumeConvergesToFaultFreeState) {
  auto events = MakeEvents(1000);
  auto opts = BaseOptions(dir_.string());
  opts.kill_after = 450;
  StreamSupervisor first(Focal(), std::move(opts));
  StreamRunReport killed = first.Run(events);
  EXPECT_TRUE(killed.killed);
  EXPECT_EQ(killed.final_position, 450u);

  StreamSupervisor second(Focal(), BaseOptions(dir_.string()));
  StreamRunReport resumed = second.Run(events);
  EXPECT_FALSE(resumed.killed);
  EXPECT_TRUE(resumed.restored_from_checkpoint);
  EXPECT_FALSE(resumed.restored_from_fallback);
  EXPECT_EQ(resumed.start_event, 400u);  // newest checkpoint before the kill
  EXPECT_EQ(resumed.final_position, 1000u);
  EXPECT_EQ(BuilderBytes(second), ReferenceBytes(events));
}

TEST_F(SupervisorTest, StaleCheckpointTriggersFreshStart) {
  auto events = MakeEvents(600);
  auto opts = BaseOptions(dir_.string());
  opts.kill_after = 300;
  StreamSupervisor first(Focal(), std::move(opts));
  (void)first.Run(events);

  // Same directory, different input: the fingerprint must reject the
  // checkpoint instead of resuming 300 events into the wrong stream.
  auto other = MakeEvents(600);
  other[0].weight = 99.0;
  StreamSupervisor second(Focal(), BaseOptions(dir_.string()));
  StreamRunReport report = second.Run(other);
  EXPECT_FALSE(report.restored_from_checkpoint);
  EXPECT_EQ(report.start_event, 0u);
  EXPECT_EQ(report.events_processed, 600u);
}

// Satellite: restore-under-corruption. The newest checkpoint generation is
// truncated (and, separately, bit-flipped); the supervisor must fall back
// to the previous generation and keep streaming to the correct end state.
TEST_F(SupervisorTest, TruncatedNewestCheckpointFallsBackToPreviousGen) {
  auto events = MakeEvents(1000);
  auto opts = BaseOptions(dir_.string());
  opts.kill_after = 450;  // leaves checkpoints at 200 and 400
  StreamSupervisor first(Focal(), std::move(opts));
  ASSERT_TRUE(first.Run(events).killed);

  fs::path newest;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (newest.empty() || entry.path().filename() > newest.filename()) {
      newest = entry.path();
    }
  }
  ASSERT_FALSE(newest.empty());
  fs::resize_file(newest, fs::file_size(newest) / 2);

  StreamSupervisor second(Focal(), BaseOptions(dir_.string()));
  StreamRunReport report = second.Run(events);
  EXPECT_TRUE(report.restored_from_checkpoint);
  EXPECT_TRUE(report.restored_from_fallback);
  EXPECT_EQ(report.start_event, 200u);  // previous generation
  EXPECT_FALSE(report.killed);
  EXPECT_EQ(report.final_position, 1000u);
  EXPECT_EQ(BuilderBytes(second), ReferenceBytes(events));
}

TEST_F(SupervisorTest, BitFlippedNewestCheckpointFallsBackToPreviousGen) {
  auto events = MakeEvents(1000);
  auto opts = BaseOptions(dir_.string());
  opts.kill_after = 450;
  StreamSupervisor first(Focal(), std::move(opts));
  ASSERT_TRUE(first.Run(events).killed);

  fs::path newest;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (newest.empty() || entry.path().filename() > newest.filename()) {
      newest = entry.path();
    }
  }
  ASSERT_FALSE(newest.empty());
  {
    std::fstream f(newest, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(40);
    char byte = 0;
    ASSERT_TRUE(f.read(&byte, 1));
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(40);
    ASSERT_TRUE(f.write(&byte, 1));
  }

  StreamSupervisor second(Focal(), BaseOptions(dir_.string()));
  StreamRunReport report = second.Run(events);
  EXPECT_TRUE(report.restored_from_fallback);
  EXPECT_EQ(report.start_event, 200u);
  EXPECT_EQ(BuilderBytes(second), ReferenceBytes(events));
}

class SupervisorFaultTest : public SupervisorTest {
 protected:
  void SetUp() override {
    SupervisorTest::SetUp();
    if (!failpoints::Enabled()) {
      GTEST_SKIP() << "built without COMMSIG_FAILPOINTS";
    }
  }
};

TEST_F(SupervisorFaultTest, CheckpointSaveFailureIsRetriedThroughPolicy) {
  auto events = MakeEvents(600);
  // First two fsyncs fail; the retry policy must absorb both and still
  // land every checkpoint.
  ASSERT_TRUE(FailPointRegistry::Global()
                  .ArmFromSpec("checkpoint/fsync=fsync_fail@0x2")
                  .ok());
  StreamSupervisor supervisor(Focal(), BaseOptions(dir_.string()));
  StreamRunReport report = supervisor.Run(events);
  EXPECT_EQ(report.checkpoints_saved, 4u);  // 200, 400, 600 + end-of-run
  EXPECT_EQ(report.checkpoint_save_failures, 0u);
  EXPECT_GE(report.io_retries, 2u);
  FailPointRegistry::Global().Reset();
  EXPECT_EQ(BuilderBytes(supervisor), ReferenceBytes(events));
}

TEST_F(SupervisorFaultTest, ExhaustedSaveRetriesDegradeTheTier) {
  auto events = MakeEvents(1000);
  // Every checkpoint save fails permanently: the stream must still finish,
  // with the degradation ladder escalating instead of the run dying.
  ASSERT_TRUE(
      FailPointRegistry::Global().ArmFromSpec("checkpoint/open=eiox0").ok());
  auto opts = BaseOptions(dir_.string());
  opts.retry.max_attempts = 2;
  opts.degrade.escalate_after = 1;
  StreamSupervisor supervisor(Focal(), std::move(opts));
  StreamRunReport report = supervisor.Run(events);
  EXPECT_FALSE(report.killed);
  EXPECT_EQ(report.events_processed, 1000u);
  EXPECT_EQ(report.checkpoints_saved, 0u);
  EXPECT_GE(report.checkpoint_save_failures, 3u);
  EXPECT_EQ(report.final_tier, DegradationTier::kSketchOnly);
  EXPECT_EQ(obs::HealthRegistry::Global().LevelOf("stream"),
            obs::HealthLevel::kCritical);
}

TEST_F(SupervisorFaultTest, WidenedCadenceCheckpointsLessOften) {
  auto events = MakeEvents(1200);
  ASSERT_TRUE(
      FailPointRegistry::Global().ArmFromSpec("checkpoint/open=eio@0x2").ok());
  auto opts = BaseOptions(dir_.string());
  opts.retry.max_attempts = 1;     // each armed save fails once, no retry
  opts.degrade.escalate_after = 1;  // escalate per failure
  opts.degrade.checkpoint_stretch = 3;
  StreamSupervisor supervisor(Focal(), std::move(opts));
  StreamRunReport report = supervisor.Run(events);
  // Saves at 200 and 400 fail and push the tier to widen_checkpoints; the
  // cadence becomes 600, so only 600, 1200 and the end-of-run save land.
  EXPECT_EQ(report.checkpoint_save_failures, 2u);
  EXPECT_EQ(report.checkpoints_saved, 3u);
  EXPECT_EQ(report.final_tier, DegradationTier::kWidenCheckpoints);
  EXPECT_EQ(report.events_processed, 1200u);
}

TEST_F(SupervisorFaultTest, TelemetryFlushRunsUnderRetryPolicy) {
  auto events = MakeEvents(400);
  ASSERT_TRUE(FailPointRegistry::Global()
                  .ArmFromSpec("test/telemetry=enospc@0x1")
                  .ok());
  auto opts = BaseOptions(dir_.string());
  uint64_t flushes = 0;
  opts.flush_telemetry = [&flushes]() {
    ++flushes;
    return failpoints::Inject("test/telemetry");
  };
  StreamSupervisor supervisor(Focal(), std::move(opts));
  StreamRunReport report = supervisor.Run(events);
  EXPECT_FALSE(report.killed);
  // Two cadences, one injected failure absorbed by a retry.
  EXPECT_EQ(flushes, 3u);
  EXPECT_GE(report.io_retries, 1u);
}

}  // namespace
}  // namespace commsig
