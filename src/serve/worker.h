// Real-time serving loop — persistent per-shard workers and the live
// front end that feeds them.
//
// PR 3's EnginePool::drain_parallel spawns one thread per shard *per
// drain*: fine for a closed-loop bench, hopeless for live traffic
// (thread create/join per timestep). This layer keeps one persistent
// worker thread per shard, woken by a condition variable when work
// arrives and sleeping toward the batcher's max-wait deadline
// otherwise, so an idle server burns no CPU and a busy one never pays
// thread churn.
//
// Threading model (docs/serving.md "Live mode"):
//   * Producers call LiveServer::submit() from any thread. A single
//     stamping mutex assigns each request a monotone arrival stamp and
//     a global seq, optionally records it as a trace event, and hands
//     it to its session's shard worker — all under the one lock, so
//     the per-shard queue order, the recorded trace order and the
//     stamp order are the same total order. That total order is what
//     makes a recorded live run replay bit-identically through the
//     virtual-clock path (serve/trace.h).
//   * Each ShardWorker drains its two-buffer inbox (producers append
//     under a short lock; the worker swaps buffers and drains outside
//     it — the MPSC handoff), feeds its shard's RequestBatcher, and
//     serves due batches. The shard itself stays single-threaded:
//     everything PR 3 proved about shared-nothing shards still holds,
//     the worker is just a persistent home for that thread.
//   * Wake-time jitter moves batch *boundaries*, never values: the
//     determinism guarantee makes outputs independent of grouping, and
//     session TTL/LRU decisions are arrival-driven (serve/session.h).
//
// Supervision (docs/serving.md "Crash recovery"): each worker stamps a
// monotonic heartbeat at every loop iteration, between the batches of
// a settle pass, and at every response delivery, so a watchdog
// (serve/supervisor.h) can tell a busy worker — however deep its
// backlog — from a wedged one. A wedged worker is not repaired in
// process: the watchdog aborts, and the journal restart recovers every
// committed session (crash-only; clients re-drive the rest through the
// resume protocol).
//
// Ledger: inflight() counts accepted-but-not-yet-RESPONDED requests —
// incremented on submit, decremented per delivered response — which is
// what max_queue sheds on and what the watchdog gates on. After
// shutdown every accepted request was answered:
//     submitted == responded
//
// The sink passed to LiveServer is invoked concurrently, one call at a
// time per shard but across shards in parallel — it must be
// thread-safe, and it must not block indefinitely (the live tool hands
// writes to a dedicated writer thread so a slow reader cannot stall a
// shard).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "serve/pool.h"
#include "serve/trace.h"

namespace zss::serve {

/// Monotonic wall clock in microseconds (process-wide epoch). This is
/// the heartbeat/watchdog timebase — deliberately NOT LiveConfig's
/// injectable arrival clock, because stall detection must measure real
/// elapsed time even under a frozen test clock.
std::int64_t mono_now_us();

struct LiveConfig {
  /// Clock used for arrival stamps and serve instants, in microseconds.
  /// Empty = steady clock that reads the pool's recovered newest arrival
  /// stamp (0 on a fresh pool) at LiveServer construction. Tests may
  /// inject a fake — condvar waits time out on the real clock, but the
  /// max-wait deadline is computed in this clock's timebase, so a fake
  /// clock moves batch boundaries only (which the determinism guarantee
  /// absorbs); a *frozen* fake clock never reaches a max-wait deadline
  /// and defers partial batches to flush/shutdown.
  std::function<std::int64_t()> now_us;
  /// Per-shard backpressure: submit() sheds (returns nullopt) when the
  /// target worker already holds this many unserved requests.
  /// 0 = unbounded.
  num::Index max_queue = 0;
  /// Record every accepted request as a TraceEvent (recorded_trace()),
  /// replayable through serve::replay for a bit-identical rerun.
  bool record = false;
  /// Per-request deadline: each accepted request must be *served* within
  /// this many microseconds of its arrival stamp or it is answered
  /// `err timeout` instead (serve/request.h). 0 = no deadline.
  std::int64_t deadline_us = 0;
};

/// Why submit() did not return a seq (or kOk when it did).
enum class SubmitStatus {
  kOk,       // accepted; seq returned
  kShed,     // shard over max_queue — back off and retry
  kStopped,  // server shut down
};

/// One persistent worker: owns the thread that is the sole toucher of
/// its EngineShard. Producers only append to the inbox; the worker
/// swaps it out under the same short lock and does all engine work
/// unlocked.
class ShardWorker {
 public:
  ShardWorker(EngineShard& shard, ResponseSink sink,
              std::function<std::int64_t()> now_us, num::Index max_queue);
  ~ShardWorker();

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  void start();

  /// MPSC producer side: appends and wakes the worker. Returns false
  /// when shedding (queue bound exceeded) or after request_stop().
  bool submit(const Request& r);

  /// Asks the worker to serve everything queued (ignoring max-wait)
  /// on its next wakeup.
  void request_flush();

  /// Drain-then-exit: the worker serves its inbox and queue, then
  /// returns. Producers must stop submitting first (LiveServer does).
  void request_stop();
  void join();

  /// Monotonic stamp (mono_now_us timebase) of the worker's last sign
  /// of life: loop iteration, settle-pass batch boundary, or response
  /// delivery — or the submission that ended an idle spell, stamped
  /// by submit() on the worker's behalf. The watchdog's liveness
  /// signal: a worker with queued work whose heartbeat stops advancing
  /// is wedged — and because the stamp advances per *response*, a
  /// healthy worker grinding through an arbitrarily deep backlog never
  /// reads as wedged.
  std::int64_t heartbeat_us() const {
    return heartbeat_us_.load(std::memory_order_relaxed);
  }

  /// Requests accepted but not yet responded to. Acquire: a reader
  /// that sees a submission's increment also sees the heartbeat that
  /// submit() stamped before it (see submit()).
  num::Index inflight() const {
    return inflight_.load(std::memory_order_acquire);
  }

  /// Test hooks: park the worker thread at its pre-serve checkpoint (a
  /// deterministic "wedge" the supervisor tests detect), and release
  /// it.
  void wedge_for_testing() { wedged_.store(true, std::memory_order_release); }
  void release_wedge() { wedged_.store(false, std::memory_order_release); }

 private:
  void run();

  EngineShard* shard_;
  ResponseSink sink_;
  std::function<std::int64_t()> now_;
  num::Index max_queue_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Request> inbox_;   // produced under mu_
  std::vector<Request> taking_;  // worker-private swap target
  // Accepted minus responded. Incremented under mu_ on submit, but
  // atomic so the watchdog and the delivery path touch it lock-free.
  // A 0 -> 1 increment first stamps heartbeat_us_ (release/acquire
  // pair with inflight()), so a just-woken idle worker never reads as
  // wedged.
  std::atomic<num::Index> inflight_{0};
  bool stop_ = false;
  bool flush_ = false;
  std::atomic<bool> wedged_{false};
  std::atomic<std::int64_t> heartbeat_us_{0};
  std::thread thread_;
};

/// The live front end: stamps, records and routes requests onto the
/// pool's shard workers, and owns graceful shutdown.
class LiveServer {
 public:
  /// Borrows the pool (and its shards) for the server's lifetime. The
  /// workers start immediately; `sink` must be thread-safe (see top).
  /// If the pool recovered journaled sessions, their newest arrival
  /// stamp seeds the stamping clock's floor so per-shard arrivals stay
  /// monotone across the restart.
  LiveServer(EnginePool& pool, ResponseSink sink, LiveConfig config = {});
  ~LiveServer();

  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  /// Stamps and enqueues one request; returns its seq, or nullopt when
  /// not accepted — `status` (optional) says why: kShed (shard over
  /// max_queue) or kStopped. `client` tags the issuing connection
  /// (echoed on the Response so the multiplexed front end routes it
  /// back; 0 = no connection). The tag never enters stamping, batching
  /// or values — request.h.
  std::optional<std::uint64_t> submit(SessionId session, num::Index token,
                                      std::uint64_t client = 0,
                                      SubmitStatus* status = nullptr);

  /// Asks every worker to drain its queue without waiting for max-wait
  /// deadlines (the protocol's `flush` verb). Asynchronous.
  void flush_all();

  /// Graceful shutdown: refuses new submissions, lets every worker
  /// drain in-flight requests, joins the threads. Idempotent; the
  /// destructor calls it too.
  void shutdown();

  std::int64_t now_us() const { return now_(); }
  std::uint64_t submitted() const {
    return submitted_.load(std::memory_order_relaxed);
  }
  std::uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }
  std::uint64_t responded() const {
    return responded_.load(std::memory_order_relaxed);
  }

  num::Index num_workers() const {
    return static_cast<num::Index>(workers_.size());
  }
  ShardWorker& worker(num::Index i) {
    return *workers_[static_cast<std::size_t>(i)];
  }

  /// The accepted requests as a replayable trace (LiveConfig::record).
  /// Only meaningful after shutdown(); sorted by construction.
  /// Timed-out requests are filtered out at shutdown — they produced
  /// no state, so replaying exactly the surviving events reproduces
  /// the run's digests.
  const std::vector<TraceEvent>& recorded_trace() const { return recorded_; }

 private:
  EnginePool* pool_;
  std::function<std::int64_t()> now_;
  std::int64_t deadline_us_ = 0;
  // unique_ptr: a worker owns a mutex and a running thread, so it must
  // never move.
  std::vector<std::unique_ptr<ShardWorker>> workers_;

  std::mutex stamp_mu_;
  std::int64_t last_stamp_ = 0;
  std::uint64_t next_seq_ = 0;
  bool stopped_ = false;
  bool record_ = false;
  std::vector<TraceEvent> recorded_;

  // Seqs answered `err timeout`, collected by the counted sink and
  // erased from recorded_ at shutdown (seq == recorded_ index).
  std::mutex timeout_mu_;
  std::vector<std::uint64_t> timeout_seqs_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> responded_{0};
};

}  // namespace zss::serve
