#ifndef COMMSIG_ROBUST_FAILPOINTS_H_
#define COMMSIG_ROBUST_FAILPOINTS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/result.h"
#include "common/thread_annotations.h"

namespace commsig {

/// Deterministic IO fail-points: the filesystem-level counterpart of
/// FaultInjector's record corruption. Every fallible IO site in the
/// runtime (checkpoint write/fsync/rename, telemetry flush, log-file sink,
/// reader open) evaluates a named fail-point before doing real work; an
/// armed site injects the configured fault on a chosen hit, so every
/// recovery path — retry, checkpoint fallback, kill and restore — is
/// exactly reproducible in tests and `commsig chaoscheck`.
///
/// The hooks are compiled in only under -DCOMMSIG_FAILPOINTS (a CMake
/// option, default ON; production embedders turn it off and every
/// Evaluate/Inject call collapses to a constant).
enum class FailPointKind {
  kOff = 0,      // not armed / not firing on this hit
  kEio,          // the operation fails with a generic IO error
  kEnospc,       // the operation fails with "no space left on device"
  kShortWrite,   // only a prefix of the buffer is written, then EIO
  kTornRename,   // the file is truncated mid-frame before the rename lands
  kFsyncFail,    // fsync reports failure (data may or may not be durable)
};

/// Stable lowercase name ("eio", "short_write", ...). Inverse of
/// ParseFailPointKind.
std::string_view FailPointKindName(FailPointKind kind);
bool ParseFailPointKind(std::string_view name, FailPointKind& out);

/// When an armed site fires. Hits are counted per site from Arm/Reset;
/// the fault fires on hits [after + 1, after + count] (count 0 = forever).
struct FailPointSpec {
  FailPointKind kind = FailPointKind::kOff;
  /// Hits skipped before the first fire (0 = fire on the very first hit).
  uint64_t after = 0;
  /// Consecutive firing hits; 0 = every hit from `after` on.
  uint64_t count = 1;
};

/// Per-site observability for assertions and the chaoscheck report.
struct FailPointStats {
  uint64_t hits = 0;
  uint64_t fires = 0;
};

/// Process-wide registry of armed fail-points, keyed by site name
/// ("checkpoint/write", "telemetry/flush", ...). Thread-safe; sites are
/// armed by tests / the --failpoints flag and evaluated by the IO helpers
/// below. Unarmed sites cost one mutex-free atomic load.
class FailPointRegistry {
 public:
  static FailPointRegistry& Global();

  void Arm(const std::string& site, FailPointSpec spec)
      COMMSIG_EXCLUDES(mutex_);
  void Disarm(const std::string& site) COMMSIG_EXCLUDES(mutex_);
  /// Disarms every site and zeroes all hit/fire counters.
  void Reset() COMMSIG_EXCLUDES(mutex_);

  /// Arms sites from a compact spec string:
  ///
  ///   site=kind[@after][xcount][;site=kind...]
  ///
  /// e.g. "checkpoint/write=enospc@2" (fail the 3rd write),
  /// "telemetry/flush=eio@1x2;checkpoint/fsync=fsync_fail" — the format the
  /// CLI's --failpoints flag and the chaos harness share. A site outside
  /// failpoints::kSites is InvalidArgument.
  Status ArmFromSpec(std::string_view spec);

  /// Counts a hit on `site` and returns the fault to inject now (kOff when
  /// the site is unarmed or out of its firing range). Fires bump the
  /// `robust/failpoints_fired` counter and log a structured event.
  FailPointKind Evaluate(std::string_view site) COMMSIG_EXCLUDES(mutex_);

  FailPointStats stats(const std::string& site) const
      COMMSIG_EXCLUDES(mutex_);
  std::vector<std::string> ArmedSites() const COMMSIG_EXCLUDES(mutex_);

 private:
  struct Entry {
    FailPointSpec spec;
    FailPointStats stats;
    bool armed = false;
  };

  FailPointRegistry() = default;

  std::atomic<int> armed_count_{0};
  mutable Mutex mutex_;
  std::map<std::string, Entry, std::less<>> sites_ COMMSIG_GUARDED_BY(mutex_);
};

namespace failpoints {

/// Every site name the runtime evaluates, one per IO call site below and
/// per Inject call. ArmFromSpec rejects any other name, so a typo or a
/// stale site cannot arm nothing in silence. docs/obs_schema.json's
/// `failpoint_sites`, extracted from the call sites, lists the same names.
inline constexpr std::string_view kSites[] = {
    "checkpoint/dirsync", "checkpoint/fsync", "checkpoint/open",
    "checkpoint/rename",  "checkpoint/write", "ingest/frame",
    "logsink/open",       "reader/open",      "telemetry/flush",
};

/// True when the injection hooks are compiled in (COMMSIG_FAILPOINTS).
bool Enabled();

/// Evaluates `site` and maps a firing fault to the Status the real IO
/// failure would produce (kShortWrite/kTornRename degrade to kEio here —
/// they only make sense inside the write/rename helpers). OK when the
/// hooks are compiled out, the site is unarmed, or it is not firing.
Status Inject(std::string_view site);

/// Fail-point-aware durable-IO primitives (POSIX fd based, so fsync is
/// real — std::ofstream cannot express durability). Each evaluates its
/// site first and injects the armed fault deterministically; otherwise it
/// performs the operation and reports real errors with the same codes.

/// open(O_WRONLY|O_CREAT|O_TRUNC, 0644). kEio/kEnospc fail the open.
Result<int> OpenForWrite(std::string_view site, const std::string& path);

/// Loops write(2) to completion. kShortWrite persists only a prefix and
/// returns IOError; kEio/kEnospc fail before writing anything.
Status WriteAll(std::string_view site, int fd, const char* data, size_t size);

/// fsync(2). kFsyncFail (or kEio/kEnospc) reports failure.
Status FsyncFd(std::string_view site, int fd);

/// rename(2). kTornRename truncates `from` to half its length first and
/// then renames *successfully* — simulating a tear that lands under the
/// live name, which the caller's CRC-validated reader must catch later.
/// kEio/kEnospc fail without renaming.
Status RenameFile(std::string_view site, const std::string& from,
                  const std::string& to);

/// Opens the directory and fsyncs it, making a preceding rename durable
/// against power loss. kFsyncFail/kEio/kEnospc report failure.
Status FsyncDir(std::string_view site, const std::string& dir);

}  // namespace failpoints

}  // namespace commsig

#endif  // COMMSIG_ROBUST_FAILPOINTS_H_
