// Shard watchdog — turns a wedged worker into a process crash.
//
// Each ShardWorker stamps a monotonic heartbeat at every loop
// iteration (serve/worker.h). The supervisor polls those stamps from
// its own thread: a worker that HOLDS WORK (inflight > 0) whose
// heartbeat has not advanced for `stall_ms` is judged wedged — stuck in
// the engine, deadlocked, or spinning. The supervisor then writes one
// line to stderr naming the shard, the heartbeat age and the in-flight
// count, and calls std::abort().
//
// Recovery is crash-only (docs/serving.md "Crash recovery"): a process
// supervisor (systemd Restart=on-failure, or any loop around the
// binary) starts a fresh server, the journal recovers every committed
// session, and resuming clients re-drive whatever was not acknowledged
// through `sync`/`pos`. This is why the watchdog needs
// --durability=journal: without a journal a restart forgets committed
// state.
//
// Threshold discipline: a worker sleeping toward its batcher's
// max-wait deadline legitimately freezes its heartbeat with work
// queued, so `stall_ms` must comfortably exceed max_wait_us / 1000
// (and the worst-case batch service time). The constructor enforces
// nothing — the caller knows its policy — but zss_serve refuses a
// stall bound below its batcher max-wait. An idle worker (inflight ==
// 0) never trips the watchdog no matter how long it sleeps, and the
// submission that ends its idle spell stamps its heartbeat, so the
// stall window starts there (ShardWorker::submit). A checkpoint runs
// on the worker thread with no stamp, so `stall_ms` must also exceed
// the longest per-shard checkpoint (docs/serving.md "Wedged workers"
// gives measured times).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "serve/worker.h"

namespace zss::serve {

struct SupervisorConfig {
  /// A worker with queued work whose heartbeat is older than this
  /// aborts the process. <= 0 disables the watchdog (start() no-ops).
  /// Detection latency is stall_ms plus at most one poll (kPollMs).
  std::int64_t stall_ms = 0;
};

class Supervisor {
 public:
  /// Heartbeat poll cadence of the watchdog thread.
  static constexpr std::int64_t kPollMs = 10;

  /// Borrows the server, which must outlive the supervisor. Call
  /// start() to arm; stop() (or destruction) disarms.
  Supervisor(LiveServer& server, SupervisorConfig config);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  void start();
  void stop();

 private:
  void run();

  LiveServer* server_;
  SupervisorConfig cfg_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace zss::serve
