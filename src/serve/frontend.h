// Epoll-multiplexed connection front end of the live server.
//
// `zss_serve --live --socket/--tcp` used to accept ONE client and
// share one output stream. This layer is the production front door the
// ROADMAP's "millions of users" item asks for: a single event-loop
// thread multiplexes a UNIX listener and a TCP listener over epoll,
// owns every connection's read buffer and write queue, and feeds
// parsed `step` lines into LiveServer::submit tagged with the issuing
// connection's id (Request::client). Shard workers stay exactly what
// PR 4 made them — the front end adds connections, never threads that
// touch a shard.
//
// Routing: every request carries its connection id, every response
// echoes it (serve/request.h), and the response sink drops the
// formatted "ok" line into that one connection's write queue — a
// response can never be delivered to a connection that did not issue
// its request, by construction. `err` (parse/shed) and `stat` lines
// are generated on the event loop for the connection that triggered
// them; they never fan out.
//
// Threading model (docs/serving.md "Connection front end"):
//
//   event-loop thread                      shard worker threads
//   ─────────────────                      ────────────────────
//   epoll_wait ──► accept / read bytes
//     parse lines ──► LiveServer::submit(session, token, conn)
//                         │ (stamping mutex, unchanged)
//                         ▼
//                    ShardWorker ──► sink: fold digest, format "ok",
//                                          push (conn, line) ──► outbox
//   ◄──────────────────── eventfd wake ─────────────┘
//   distribute outbox ──► per-connection write queues
//   non-blocking send; EPOLLOUT on partial writes
//
// The event loop is the only thread that touches sockets or connection
// state; sinks only append to the outbox under a short lock and write
// the eventfd. A connection whose reader stalls accumulates output in
// its own queue (and, past FrontendConfig::max_write_buffer, stops
// being *read* — backpressure — so a pipelining client cannot buy
// unbounded server memory); it can never block another connection or a
// shard worker. Per-connection shedding (`max_queue`) bounds each
// client's in-flight requests independently — fair: one client at its
// cap sheds alone, everyone else is untouched.
//
// Determinism: the front end changes who *receives* lines, never what
// is computed. Stamping still defines the one total order; the digest
// table is folded in the same per-shard sinks as stdin mode; a
// recorded multiplexed run replays bit-identically through the
// virtual-clock path at any shard count (CI diffs exactly that with 64
// mixed UNIX+TCP clients churning mid-run).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "serve/pool.h"
#include "serve/protocol.h"
#include "serve/worker.h"

namespace zss::serve {

struct FrontendConfig {
  /// UNIX listener path. Empty = no UNIX listener. A stale socket file
  /// left by a crashed previous run is unlinked and reclaimed; anything
  /// else living at the path is a startup refusal (never deleted).
  std::string unix_path;
  /// TCP listener. Port < 0 = no TCP listener; 0 = ephemeral (resolved
  /// port readable via tcp_port() after start()).
  std::string tcp_host = "127.0.0.1";
  int tcp_port = -1;
  /// Per-connection backpressure: a `step` arriving while this many of
  /// the connection's requests are still in flight is shed with an
  /// `err` to that client only. 0 = unbounded.
  num::Index max_queue = 0;
  /// A connection whose write queue exceeds this many bytes stops
  /// being read until the queue drains below half — backpressure
  /// toward a pipelining client that is not consuming its responses.
  std::size_t max_write_buffer = std::size_t{4} << 20;
  /// A line longer than this without a newline is a protocol violation:
  /// the connection gets an `err` and is drained/closed.
  std::size_t max_line = std::size_t{1} << 16;
  /// Shutdown grace for flushing final write queues to slow readers.
  std::int64_t linger_us = 2'000'000;
};

/// Lifetime counters of the front end. Written only by the event-loop
/// thread; read them after join() (tests do), or accept races.
struct FrontendStats {
  std::uint64_t accepted = 0;
  std::uint64_t disconnected = 0;
  std::uint64_t shed = 0;                // per-connection cap rejections
  std::uint64_t dropped_responses = 0;   // lines owed to dead connections
  std::uint64_t oversize_lines = 0;      // max_line protocol violations
  std::uint64_t read_pauses = 0;         // write-buffer backpressure engaged
  std::uint64_t discarded_partial = 0;   // unterminated bytes at disconnect
};

/// The front end owns its LiveServer (constructed with a sink that
/// folds the per-shard digest tables and routes responses) and one
/// event-loop thread. Lifecycle: construct → start() → [clients; a
/// `quit` line or stop()] → join() → digests()/stats()/recorded trace.
class Frontend {
 public:
  /// Borrows the pool for the front end's lifetime. `live` configures
  /// the underlying LiveServer; its max_queue (per *shard*) composes
  /// with the per-connection cap but is normally left 0 in favor of
  /// the fair per-client cap here.
  Frontend(EnginePool& pool, FrontendConfig config, LiveConfig live = {});
  ~Frontend();

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Binds the configured listeners and starts the event loop. False
  /// on failure (error explains; nothing is left bound). At least one
  /// listener must be configured.
  bool start(std::string* error);

  /// Resolved TCP port (meaningful after start() when tcp_port >= 0;
  /// the point of passing 0 is reading the kernel-chosen port here).
  int tcp_port() const { return resolved_tcp_port_; }

  /// Begins graceful shutdown, exactly like a client's `quit` line:
  /// stop accepting, drain every in-flight request, send `bye`, flush
  /// within the linger budget. Async-signal-safe (atomic flag + an
  /// eventfd write), so a SIGINT handler may call it.
  void stop();

  /// Waits for the event loop to exit (after a `quit` line or stop()).
  void join();

  const LiveServer& server() const { return *server_; }
  /// Mutable access for the supervisor (worker heartbeats) and tests.
  LiveServer& server() { return *server_; }

  /// Merged per-session digest table — the pool's authoritative
  /// per-shard tables (SessionStore::digests_copy), the same table
  /// stdin mode and replay mode print and the table journal recovery
  /// reconstructs. Thread-safe, but only quiescent after join().
  DigestTable digests() const;

  /// Call after join() (see FrontendStats).
  const FrontendStats& stats() const { return stats_; }

 private:
  struct Conn;

  void run();
  void accept_all(int listener, bool tcp);
  void handle_read(Conn& conn);
  void handle_line(Conn& conn, std::string_view line);
  void push_line(Conn& conn, std::string line);
  bool flush_conn(Conn& conn);  // false = connection dropped
  void drain_outbox();
  void update_events(Conn& conn);
  void maybe_close(Conn& conn);
  void drop_conn(Conn& conn);
  void begin_quit();
  void close_listeners();
  void wake();

  EnginePool* pool_;
  FrontendConfig config_;
  std::unique_ptr<LiveServer> server_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int unix_listener_ = -1;
  int tcp_listener_ = -1;
  int resolved_tcp_port_ = -1;
  std::thread thread_;
  std::atomic<bool> stop_requested_{false};

  // Outbox: the only cross-thread state. Shard-worker sinks append
  // (conn, line) under the short lock; the loop swaps and distributes.
  std::mutex out_mu_;
  std::vector<std::pair<std::uint64_t, std::string>> outbox_, out_taking_;

  // Everything below is event-loop-thread private.
  std::map<std::uint64_t, Conn> conns_;
  std::uint64_t next_conn_id_ = 1;
  bool quit_started_ = false;
  std::int64_t linger_deadline_us_ = 0;
  FrontendStats stats_;
};

/// Snapshots the server + per-shard session-store counters into the
/// `stat` line payload (shared by the front end and stdin mode).
StatsSnapshot snapshot_stats(const LiveServer& server, const EnginePool& pool);

}  // namespace zss::serve
