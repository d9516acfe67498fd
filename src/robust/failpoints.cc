#include "robust/failpoints.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "obs/log.h"
#include "obs/obs.h"

namespace commsig {

std::string_view FailPointKindName(FailPointKind kind) {
  switch (kind) {
    case FailPointKind::kOff:
      return "off";
    case FailPointKind::kEio:
      return "eio";
    case FailPointKind::kEnospc:
      return "enospc";
    case FailPointKind::kShortWrite:
      return "short_write";
    case FailPointKind::kTornRename:
      return "torn_rename";
    case FailPointKind::kFsyncFail:
      return "fsync_fail";
  }
  return "unknown";
}

bool ParseFailPointKind(std::string_view name, FailPointKind& out) {
  for (FailPointKind kind :
       {FailPointKind::kEio, FailPointKind::kEnospc,
        FailPointKind::kShortWrite, FailPointKind::kTornRename,
        FailPointKind::kFsyncFail}) {
    if (name == FailPointKindName(kind)) {
      out = kind;
      return true;
    }
  }
  return false;
}

FailPointRegistry& FailPointRegistry::Global() {
  static FailPointRegistry* instance =
      new FailPointRegistry();  // NOLINT(analyze-hygiene-naked-new)
  return *instance;
}

void FailPointRegistry::Arm(const std::string& site, FailPointSpec spec) {
  MutexLock lock(mutex_);
  Entry& entry = sites_[site];
  if (!entry.armed) armed_count_.fetch_add(1);
  entry.spec = spec;
  entry.stats = FailPointStats{};
  entry.armed = true;
  obs::LogInfo("failpoint_armed")
      .Str("site", site)
      .Str("kind", FailPointKindName(spec.kind))
      .U64("after", spec.after)
      .U64("count", spec.count);
}

void FailPointRegistry::Disarm(const std::string& site) {
  MutexLock lock(mutex_);
  auto it = sites_.find(site);
  if (it == sites_.end() || !it->second.armed) return;
  it->second.armed = false;
  armed_count_.fetch_sub(1);
}

void FailPointRegistry::Reset() {
  MutexLock lock(mutex_);
  sites_.clear();
  armed_count_.store(0);
}

Status FailPointRegistry::ArmFromSpec(std::string_view spec) {
  size_t start = 0;
  while (start <= spec.size()) {
    size_t end = spec.find(';', start);
    if (end == std::string_view::npos) end = spec.size();
    std::string_view clause = spec.substr(start, end - start);
    start = end + 1;
    if (clause.empty()) continue;

    const size_t eq = clause.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status::InvalidArgument("failpoint clause '" +
                                     std::string(clause) +
                                     "' is not site=kind[@after][xcount]");
    }
    std::string site(clause.substr(0, eq));
    if (std::find(std::begin(failpoints::kSites), std::end(failpoints::kSites),
                  site) == std::end(failpoints::kSites)) {
      return Status::InvalidArgument("unknown failpoint site '" + site + "'");
    }
    std::string_view rest = clause.substr(eq + 1);

    FailPointSpec parsed;
    // kind, then optional @after, then optional xcount (in that order).
    const size_t at = rest.find('@');
    const size_t x = rest.find('x', at == std::string_view::npos ? 0 : at);
    std::string_view kind_name =
        rest.substr(0, std::min(at, x) == std::string_view::npos
                           ? rest.size()
                           : std::min(at, x));
    if (!ParseFailPointKind(kind_name, parsed.kind)) {
      return Status::InvalidArgument("unknown failpoint kind '" +
                                     std::string(kind_name) + "'");
    }
    auto parse_u64 = [](std::string_view digits, uint64_t& out) {
      if (digits.empty()) return false;
      uint64_t v = 0;
      for (char c : digits) {
        if (c < '0' || c > '9') return false;
        v = v * 10 + static_cast<uint64_t>(c - '0');
      }
      out = v;
      return true;
    };
    if (at != std::string_view::npos) {
      const size_t stop = x == std::string_view::npos ? rest.size() : x;
      if (!parse_u64(rest.substr(at + 1, stop - at - 1), parsed.after)) {
        return Status::InvalidArgument("bad @after in failpoint clause '" +
                                       std::string(clause) + "'");
      }
    }
    if (x != std::string_view::npos) {
      if (!parse_u64(rest.substr(x + 1), parsed.count)) {
        return Status::InvalidArgument("bad xcount in failpoint clause '" +
                                       std::string(clause) + "'");
      }
    }
    Arm(site, parsed);
  }
  return Status::OK();
}

FailPointKind FailPointRegistry::Evaluate(std::string_view site) {
  if (armed_count_.load() == 0) return FailPointKind::kOff;
  MutexLock lock(mutex_);
  auto it = sites_.find(site);
  if (it == sites_.end() || !it->second.armed) return FailPointKind::kOff;
  Entry& entry = it->second;
  const uint64_t hit = ++entry.stats.hits;
  const bool in_range =
      hit > entry.spec.after &&
      (entry.spec.count == 0 || hit <= entry.spec.after + entry.spec.count);
  if (!in_range) return FailPointKind::kOff;
  ++entry.stats.fires;
  COMMSIG_COUNTER_ADD("robust/failpoints_fired", 1);
  obs::LogWarn("failpoint_fired")
      .Str("site", site)
      .Str("kind", FailPointKindName(entry.spec.kind))
      .U64("hit", hit);
  return entry.spec.kind;
}

FailPointStats FailPointRegistry::stats(const std::string& site) const {
  MutexLock lock(mutex_);
  auto it = sites_.find(site);
  return it == sites_.end() ? FailPointStats{} : it->second.stats;
}

std::vector<std::string> FailPointRegistry::ArmedSites() const {
  MutexLock lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [site, entry] : sites_) {
    if (entry.armed) out.push_back(site);
  }
  return out;
}

namespace failpoints {

namespace {

/// Maps a firing fail-point to the Status the equivalent real failure
/// would carry. Site name included so retry logs and dead letters point
/// at the injection site, not a mystery disk.
Status InjectedStatus(std::string_view site, FailPointKind kind) {
  switch (kind) {
    case FailPointKind::kEnospc:
      return Status::IOError("injected ENOSPC at " + std::string(site));
    case FailPointKind::kFsyncFail:
      return Status::IOError("injected fsync failure at " +
                             std::string(site));
    default:
      return Status::IOError("injected EIO at " + std::string(site));
  }
}

FailPointKind Eval(std::string_view site) {
#ifdef COMMSIG_FAILPOINTS
  return FailPointRegistry::Global().Evaluate(site);
#else
  (void)site;
  return FailPointKind::kOff;
#endif
}

}  // namespace

bool Enabled() {
#ifdef COMMSIG_FAILPOINTS
  return true;
#else
  return false;
#endif
}

Status Inject(std::string_view site) {
  const FailPointKind kind = Eval(site);
  if (kind == FailPointKind::kOff) return Status::OK();
  return InjectedStatus(site, kind);
}

Result<int> OpenForWrite(std::string_view site, const std::string& path) {
  const FailPointKind kind = Eval(site);
  if (kind != FailPointKind::kOff) return InjectedStatus(site, kind);
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  return fd;
}

Status WriteAll(std::string_view site, int fd, const char* data,
                size_t size) {
  const FailPointKind kind = Eval(site);
  if (kind == FailPointKind::kEio || kind == FailPointKind::kEnospc ||
      kind == FailPointKind::kFsyncFail) {
    return InjectedStatus(site, kind);
  }
  // A short write persists a prefix — the torn state a real ENOSPC or
  // signal-interrupted writer leaves behind — and then reports failure.
  const size_t to_write =
      kind == FailPointKind::kShortWrite ? size / 2 : size;
  size_t written = 0;
  while (written < to_write) {
    const ssize_t n = ::write(fd, data + written, to_write - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("write: ") + std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  if (kind == FailPointKind::kShortWrite) {
    return Status::IOError("injected short write at " + std::string(site) +
                           " (" + std::to_string(to_write) + "/" +
                           std::to_string(size) + " bytes)");
  }
  return Status::OK();
}

Status FsyncFd(std::string_view site, int fd) {
  const FailPointKind kind = Eval(site);
  if (kind != FailPointKind::kOff) return InjectedStatus(site, kind);
  if (::fsync(fd) != 0) {
    return Status::IOError(std::string("fsync: ") + std::strerror(errno));
  }
  return Status::OK();
}

Status RenameFile(std::string_view site, const std::string& from,
                  const std::string& to) {
  const FailPointKind kind = Eval(site);
  if (kind == FailPointKind::kTornRename) {
    // Tear the frame, then let the rename land: the live name now holds a
    // half-written checkpoint, exactly what a non-atomic filesystem can
    // leave after a crash. The CRC-validating reader must fall back.
    struct stat st{};
    if (::stat(from.c_str(), &st) == 0 && st.st_size > 0) {
      if (::truncate(from.c_str(), st.st_size / 2) != 0) {
        return Status::IOError(std::string("truncate: ") +
                               std::strerror(errno));
      }
    }
  } else if (kind != FailPointKind::kOff) {
    return InjectedStatus(site, kind);
  }
  if (::rename(from.c_str(), to.c_str()) != 0) {
    return Status::IOError("rename " + from + " -> " + to + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status FsyncDir(std::string_view site, const std::string& dir) {
  const FailPointKind kind = Eval(site);
  if (kind != FailPointKind::kOff) return InjectedStatus(site, kind);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("open dir " + dir + ": " + std::strerror(errno));
  }
  Status s = Status::OK();
  if (::fsync(fd) != 0) {
    s = Status::IOError("fsync dir " + dir + ": " + std::strerror(errno));
  }
  ::close(fd);
  return s;
}

}  // namespace failpoints

}  // namespace commsig
