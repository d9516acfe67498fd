#include "robust/supervisor.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/bytes.h"
#include "common/random.h"
#include "obs/log.h"
#include "obs/obs.h"
#include "obs/trace.h"

namespace commsig {

uint64_t StreamSupervisor::FingerprintEvents(
    const std::vector<TraceEvent>& events) {
  uint64_t h = SplitMix64(0x5160 ^ events.size());
  for (const TraceEvent& e : events) {
    h = SplitMix64(h ^ e.src);
    h = SplitMix64(h ^ e.dst);
    h = SplitMix64(h ^ e.time);
    uint64_t w = 0;
    std::memcpy(&w, &e.weight, sizeof(w));
    h = SplitMix64(h ^ w);
  }
  return h;
}

StreamSupervisor::StreamSupervisor(std::vector<NodeId> focal, Options options)
    : focal_(std::move(focal)),
      options_(std::move(options)),
      retrier_(options_.retry),
      degradation_(options_.degrade) {
  if (!options_.checkpoint_dir.empty()) {
    manager_ = std::make_unique<CheckpointManager>(options_.checkpoint_dir);
  }
  tracing_baseline_ = obs::TraceCollector::Global().enabled();
  tracing_current_ = tracing_baseline_;
}

uint64_t StreamSupervisor::RestoreOrFresh(uint64_t fingerprint,
                                          size_t total_events,
                                          StreamRunReport& report) {
  uint64_t start = 0;
  if (manager_ != nullptr) {
    auto loaded = manager_->LoadLatest();
    if (loaded.ok()) {
      if (loaded->corrupt_skipped > 0) {
        obs::LogWarn("checkpoint_corrupt_skipped")
            .U64("skipped", loaded->corrupt_skipped)
            .U64("sequence", loaded->sequence);
      }
      ByteReader in(loaded->payload);
      auto ckpt_fp = in.U64();
      auto consumed = in.U64();
      if (!ckpt_fp.ok() || !consumed.ok()) {
        obs::LogWarn("checkpoint_unreadable").Str("action", "starting fresh");
      } else if (*ckpt_fp != fingerprint || *consumed > total_events) {
        obs::LogWarn("checkpoint_stale")
            .Str("reason", "input changed")
            .Str("action", "starting fresh");
      } else {
        auto restored = StreamingSignatureBuilder::FromBytes(in);
        if (restored.ok() && in.AtEnd()) {
          builder_ = std::make_unique<StreamingSignatureBuilder>(
              *std::move(restored));
          start = *consumed;
          report.restored_from_checkpoint = true;
          report.restored_from_fallback = loaded->recovered_from_fallback;
          COMMSIG_COUNTER_ADD("robust/checkpoint_restores", 1);
          obs::LogInfo("checkpoint_restored")
              .U64("resume_event", start)
              .U64("total_events", total_events)
              .Bool("fallback", loaded->recovered_from_fallback);
        } else {
          obs::LogWarn("checkpoint_invalid")
              .Str("detail", restored.ok() ? "trailing bytes"
                                           : restored.status().ToString())
              .Str("action", "starting fresh");
        }
      }
    } else if (!loaded.status().IsNotFound()) {
      obs::LogWarn("checkpoint_restore_failed")
          .Str("status", loaded.status().ToString())
          .Str("action", "starting fresh");
    }
  }
  if (builder_ == nullptr) {
    builder_ = std::make_unique<StreamingSignatureBuilder>(focal_,
                                                           options_.builder);
  }
  return start;
}

void StreamSupervisor::ObserveSlice(const std::vector<TraceEvent>& events,
                                    uint64_t begin, uint64_t end,
                                    obs::WindowRecord& epoch) {
  for (uint64_t i = begin; i < end; ++i) {
    {
      obs::ScopedStageTimer timer(epoch, obs::PipelineStage::kWindowBuild);
      builder_->Observe(events[i]);
    }
    ++epoch.events;
    if (options_.replay_rate > 0.0) PaceReplay(events[i].time);
  }
}

void StreamSupervisor::PaceReplay(uint64_t event_time) {
  const uint64_t now_us = obs::TraceCollector::Global().NowMicros();
  if (!replay_anchored_) {
    replay_anchored_ = true;
    replay_wall_start_us_ = now_us;
    replay_time_base_ = event_time;
    return;
  }
  if (event_time <= replay_time_base_) return;
  const double offset_us =
      static_cast<double>(event_time - replay_time_base_) * 1e6 /
      options_.replay_rate;
  // A tiny replay_rate over a long trace puts the offset past uint64_t,
  // where the cast is undefined. Saturate it first: 2^62 us is far beyond
  // any real run, so such an event just waits its capped sleep.
  constexpr double kMaxOffsetUs = 0x1p62;
  const uint64_t due_us =
      replay_wall_start_us_ +
      static_cast<uint64_t>(std::min(offset_us, kMaxOffsetUs));
  if (due_us <= now_us) return;
  // Cap each sleep so kill-after crashes and test shutdowns stay responsive
  // even at very slow replay rates; the schedule is absolute, so successive
  // events resume the wait where this one left it.
  constexpr uint64_t kMaxSleepUs = 50000;
  const uint64_t wait_us = std::min<uint64_t>(due_us - now_us, kMaxSleepUs);
  std::this_thread::sleep_for(std::chrono::microseconds(wait_us));
}

void StreamSupervisor::RunEpoch(const std::vector<TraceEvent>& events,
                                uint64_t begin, uint64_t end,
                                obs::WindowRecord& epoch,
                                StreamRunReport& report) {
  // A window can span several epochs, so the budget checks this epoch's
  // share of the window_build stage, the same timers slow_window sums.
  uint64_t& observe_us =
      epoch.stage_us[static_cast<size_t>(obs::PipelineStage::kWindowBuild)];
  const uint64_t observe_before_us = observe_us;
  ObserveSlice(events, begin, end, epoch);
  report.events_processed += end - begin;
  if (options_.epoch_budget_us > 0 &&
      observe_us - observe_before_us > options_.epoch_budget_us) {
    degradation_.ReportOverload("epoch_budget");
  } else {
    degradation_.ReportHealthy();
  }
  ApplyTierEffects();
}

void StreamSupervisor::SaveCheckpoint(uint64_t consumed, uint64_t fingerprint,
                                      StreamRunReport& report) {
  ByteWriter out;
  out.PutU64(fingerprint);
  out.PutU64(consumed);
  builder_->AppendTo(out);
  const std::string& payload = out.bytes();
  Status s = retrier_.Run("checkpoint_save", [&]() {
    return manager_->Save(consumed, payload);
  });
  if (s.ok()) {
    ++report.checkpoints_saved;
    return;
  }
  ++report.checkpoint_save_failures;
  obs::LogError("checkpoint_save_failed")
      .U64("consumed", consumed)
      .Str("status", s.ToString());
  degradation_.ReportFailure("checkpoint_save_failed");
  ApplyTierEffects();
}

void StreamSupervisor::Emit(uint64_t position, obs::WindowRecord& epoch) {
  // Periodic re-emission. The builder memoizes extractions per focal node,
  // so between two emissions only the nodes that actually talked pay for a
  // re-extraction; everyone else is a cache hit. At the sketch-only tier
  // the UT extraction — whose cache is invalidated globally by any novelty
  // change — is shed, keeping only the per-node TT signatures.
  const bool sketch_only = degradation_.sketch_only();
  size_t active = 0;
  {
    COMMSIG_SPAN("stream/emit");
    obs::ScopedStageTimer timer(epoch, obs::PipelineStage::kExtract);
    for (NodeId v : focal_) {
      if (!builder_->TopTalkers(v, options_.k).empty()) ++active;
      if (!sketch_only) builder_->UnexpectedTalkers(v, options_.k);
    }
  }
  epoch.dirty_nodes = active;
  epoch.reused_nodes = focal_.size() - active;
  obs::LogInfo("stream_emit")
      .U64("position", position)
      .U64("active", active)
      .U64("focal", focal_.size());
}

void StreamSupervisor::ApplyTierEffects() {
  if (!options_.manage_tracing) return;
  const bool want = degradation_.shed_tracing() ? false : tracing_baseline_;
  if (want != tracing_current_) {
    obs::TraceCollector::Global().SetEnabled(want);
    tracing_current_ = want;
  }
}

StreamRunReport StreamSupervisor::Run(const std::vector<TraceEvent>& events) {
  StreamRunReport report;
  const uint64_t n = events.size();
  const uint64_t fingerprint = FingerprintEvents(events);
  const uint64_t start = RestoreOrFresh(fingerprint, n, report);
  report.start_event = start;
  report.final_position = start;

  // Stream attribution: the builder is cumulative (no discrete graph
  // windows), so each epoch — the emit cadence when set, else the
  // checkpoint cadence — is reported as one pipeline window.
  const uint64_t window_len = options_.emit_every > 0
                                  ? options_.emit_every
                                  : options_.checkpoint_every;
  obs::WindowRecord epoch;
  uint64_t epoch_index = 0;
  auto begin_window = [&]() {
    epoch = obs::WindowRecord{};
    epoch.window_index = epoch_index;
    epoch.focal_nodes = focal_.size();
  };
  auto finish_window = [&]() {
    obs::WindowStatsAggregator::Global().Record(epoch);
    ++epoch_index;
    begin_window();
  };
  begin_window();

  const uint64_t kill_pos = options_.kill_after > 0
                                ? start + options_.kill_after
                                : UINT64_MAX;
  uint64_t pos = start;
  while (pos < n) {
    // The next epoch boundary: the earliest of the emit cadence, the
    // (possibly degradation-stretched) checkpoint cadence, the simulated
    // crash position, and end of stream. Cadences are keyed to the
    // absolute stream position, so a restored run checkpoints and emits at
    // the same offsets as an uninterrupted one.
    const uint64_t stretch = degradation_.checkpoint_stretch();  // >= 1
    const uint64_t every_eff =
        options_.checkpoint_every > UINT64_MAX / stretch
            ? UINT64_MAX  // saturate: a wrapped product would be tiny
            : options_.checkpoint_every * stretch;
    uint64_t end = n;
    auto align = [&](uint64_t cadence) {
      if (cadence == 0) return;
      end = std::min(end, (pos / cadence + 1) * cadence);
    };
    align(options_.emit_every);
    align(every_eff);
    align(window_len);
    if (kill_pos > pos) end = std::min(end, kill_pos);

    RunEpoch(events, pos, end, epoch, report);
    pos = end;
    report.final_position = pos;
    ++report.epochs;

    if (every_eff > 0 && pos % every_eff == 0) {
      if (manager_ != nullptr) SaveCheckpoint(pos, fingerprint, report);
      // In-run telemetry flush, keyed to the checkpoint cadence so a
      // watcher tailing --metrics-out sees progress before the run ends.
      // A flush that fails even after retries is dropped (the next cadence
      // rewrites the full snapshot anyway); the Retrier already logged it.
      if (options_.flush_telemetry) {
        Status flushed = retrier_.Run("telemetry_flush",
                                      options_.flush_telemetry);
        (void)flushed;
      }
    }
    if (options_.emit_every > 0 && pos % options_.emit_every == 0) {
      Emit(pos, epoch);
    }
    if (window_len > 0 && pos % window_len == 0) finish_window();
    if (pos == kill_pos && pos < n) {
      obs::LogWarn("stream_simulated_crash")
          .U64("position", pos)
          .U64("total_events", n);
      report.killed = true;
      report.io_retries = retrier_.retries();
      report.final_tier = degradation_.tier();
      return report;
    }
  }
  if (epoch.events > 0) finish_window();
  if (manager_ != nullptr && start < n) {
    SaveCheckpoint(n, fingerprint, report);
  }
  report.io_retries = retrier_.retries();
  report.final_tier = degradation_.tier();
  obs::LogInfo("stream_done")
      .U64("events_this_run", report.events_processed)
      .U64("events_total", builder_->events_observed());
  return report;
}

}  // namespace commsig
