// Load generator: one thread that sends and receives on kConnections
// UNIX-socket connections to a live zss_serve, busy-polling. Sessions
// are pinned to connection `session % kConnections`, so the server
// sees each session's requests in the order they were generated.
//
// Every `ok` row digest is folded per session on the client, and every
// request written is logged in send order — the oracle replays exactly
// that log and compares digest tables.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "num/rng.h"
#include "serve/client.h"
#include "serve/digest.h"
#include "server.h"
#include "spans.h"

namespace perfbench {

/// CPU placement, as the server would get on a dedicated machine: the
/// last CPU runs the load generator, the others run the server (its two
/// workers and its front-end thread). No-ops on a single CPU.
void pin_to_generator_cpu();
void pin_to_server_cpus();

/// Keeps every server vCPU busy with SCHED_IDLE spinners for its lifetime.
/// On a virtual machine an idle vCPU halts, and the host takes from
/// 0.1 to over 10 ms to run it again when one of its threads wakes: a
/// server worker waking for a request would pay that, and it would
/// swamp and randomise every latency figure. A SCHED_IDLE thread is
/// preempted by any other runnable thread as soon as it wakes, so the
/// server keeps all the CPU it asks for; only the halts go away. The
/// generator's own CPU needs none: the generator busy-polls.
class KeepAwake {
 public:
  KeepAwake();
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Draws session ids: uniform, or Zipf over ranks (rank == id).
class SessionPicker {
 public:
  explicit SessionPicker(const Workload& w);
  std::uint64_t pick(zss::num::Rng& rng) const;

 private:
  int sessions_;
  std::vector<double> cdf_;  // empty = uniform
};

struct PlanEntry {
  std::int64_t due_ns = 0;  // offset from the phase start
  std::uint64_t session = 0;
  int token = 0;
};

/// Poisson arrivals at w.open_rps for `seconds`.
std::vector<PlanEntry> open_plan(const Workload& w, double seconds,
                                 zss::num::Rng& rng);

struct PhaseResult {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t err = 0;
  std::uint64_t unanswered = 0;
  std::vector<double> latency_us;  // open loop: due -> ok received
  std::vector<double> lag_us;      // open loop: due -> written
  std::vector<int> batch;          // batch size of every ok line
  double seconds = 0.0;            // closed loop: window length
  std::uint64_t ok_in_window = 0;  // closed loop: oks inside the window
};

class Loadgen {
 public:
  Loadgen();
  /// Connects every connection (retrying until `timeout_ms`).
  bool connect(const std::string& socket_path, int timeout_ms,
               std::string* error);
  void disconnect();

  /// One step on its session's connection, waiting for the `ok`.
  /// Returns the receive time (now_ns), or 0 on failure.
  std::int64_t step_sync(std::uint64_t session, int token, int timeout_ms);
  /// Sends `stats` and parses the `stat` reply into key=value pairs.
  bool stats(std::map<std::string, std::string>* out, int timeout_ms);
  /// Sends `quit` (the server drains and exits).
  void quit();

  /// Open loop over `plan`, starting now. With `spans`, records a
  /// request span per response and a send span per request.
  PhaseResult open_loop(const std::vector<PlanEntry>& plan, SpanLog* spans);
  /// Closed loop: every connection keeps kWindow requests outstanding
  /// for `seconds`, then drains.
  PhaseResult closed_loop(const Workload& w, double seconds,
                          std::uint64_t seed);

  /// Every request written so far, in send order (the oracle's trace).
  const std::vector<TraceLine>& sent_log() const { return sent_; }
  void clear_log() {
    sent_.clear();
    digests_.clear();
  }
  const std::unordered_map<std::uint64_t, zss::serve::SessionDigest>&
  digests() const {
    return digests_;
  }

 private:
  struct Conn {
    zss::serve::ClientConn io;
    std::string buf;
  };
  struct Ok {
    std::uint64_t session = 0;
    int batch = 0;
  };
  enum class LineKind { kOk, kErr, kStat, kOther };

  int conn_of(std::uint64_t session) const {
    return static_cast<int>(session % kConnections);
  }
  bool send_step(std::uint64_t session, int token);
  /// Reads what is available on connection `c` and hands each complete
  /// line to `fn(kind, ok, line)`; ok lines are already folded.
  template <typename Fn>
  void drain(int c, Fn&& fn);
  /// poll() over all connections for up to timeout_ms, then drains.
  template <typename Fn>
  void poll_lines(int timeout_ms, Fn&& fn);
  LineKind parse(const std::string& line, Ok* ok);
  void log_sent(std::uint64_t session, int token);

  std::vector<Conn> conns_;
  std::vector<TraceLine> sent_;
  std::unordered_map<std::uint64_t, zss::serve::SessionDigest> digests_;
};

}  // namespace perfbench
