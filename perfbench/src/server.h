// The server under test as a child process: spawn, observe through
// /proc, stop. Also runs the 1-shard trace replay the oracle compares
// the live digests against.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "serve/digest.h"

namespace perfbench {

/// Flags that give zss_serve the workload's model and serving policy.
/// `live` adds the socket front end and the durable tier, which the
/// replay oracle runs without (it replays uncapped and in RAM).
std::vector<std::string> model_flags(const Workload& w);
std::vector<std::string> live_flags(const Workload& w,
                                    const std::string& socket_path,
                                    const std::string& spill_dir);

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// fork+exec `exe args`, stdout and stderr appended to `log_path`.
  bool start(const std::string& exe, const std::vector<std::string>& args,
             const std::string& log_path);
  /// Exec time of the last start(), in the now_ns() timebase.
  std::int64_t started_ns() const { return started_ns_; }
  bool running() const { return pid_ > 0; }
  /// utime + stime of the whole process, in seconds.
  double cpu_seconds() const;
  /// VmHWM: peak resident set, in MiB.
  double peak_rss_mb() const;
  /// Waits for the process to exit by itself; false on timeout.
  bool wait_exit(int timeout_ms, int* status = nullptr);
  /// SIGKILL and reap (no-op when not running).
  void kill_hard();

 private:
  pid_t pid_ = -1;
  std::int64_t started_ns_ = 0;
};

/// Share of the (virtual) machine's CPU time that the hypervisor took (the
/// `steal` column of /proc/stat) since construction, in percent; 0 where
/// the kernel does not report it.
class StealMeter {
 public:
  StealMeter();
  double pct() const;

 private:
  double steal0_;
  std::int64_t t0_;
};

/// One request as sent, in send order.
struct TraceLine {
  std::uint64_t session = 0;
  int token = 0;
};

/// Replays `events` through `zss_serve --trace --shards=1` with the
/// workload's model flags (uncapped, in RAM) and parses the digest
/// table. False (with `error`) when the replay fails.
bool replay_digests(const std::string& exe, const Workload& w,
                    const std::vector<TraceLine>& events,
                    const std::string& work_dir,
                    std::map<std::uint64_t, zss::serve::SessionDigest>* out,
                    std::string* error);

}  // namespace perfbench
