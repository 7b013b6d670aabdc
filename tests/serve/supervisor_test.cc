#include "serve/supervisor.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>

#include "core/state_pruner.h"
#include "nn/lstm_cell.h"
#include "num/rng.h"
#include "serve/pool.h"
#include "serve/worker.h"

// The watchdog half of crash recovery (docs/serving.md "Crash recovery
// & degradation ladder"): per-worker heartbeats and wedge detection.
// Idle and busy-but-healthy workers never trip it — the process
// survives. A wedged worker aborts the process, and a fresh pool over
// the same journal dir, plus clients re-driving their unacknowledged
// suffix, lands exactly where an uninterrupted run lands.
namespace zss::serve {
namespace {

num::Index token_at(SessionId sid, std::uint64_t i, num::Index vocab) {
  return static_cast<num::Index>(
      num::splitmix64_mix(sid * 1000003ULL + i) %
      static_cast<std::uint64_t>(vocab));
}

bool wait_until(const std::function<bool()>& done,
                std::chrono::seconds limit = std::chrono::seconds(10)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// True once every worker's heartbeat is older than `stall_ms` plus two
/// polls — so the watchdog has scanned each one while it read stale.
bool all_heartbeats_stale(LiveServer& server, std::int64_t stall_ms) {
  const std::int64_t limit_us = (stall_ms + 2 * Supervisor::kPollMs) * 1000;
  for (num::Index i = 0; i < server.num_workers(); ++i) {
    if (mono_now_us() - server.worker(i).heartbeat_us() <= limit_us) {
      return false;
    }
  }
  return true;
}

class SupervisorTest : public ::testing::Test {
 protected:
  SupervisorTest()
      : rng_(314159),
        cell_(/*input_dim=*/5, /*hidden_dim=*/12, rng_),
        pruner_(core::PrunerConfig::fixed(0.08f)) {}

  num::Rng rng_;
  nn::LstmCell cell_;
  core::StatePruner pruner_;
};

TEST_F(SupervisorTest, IdleAndHealthyWorkersAreNeverAborted) {
  PoolConfig config;
  config.shards = 2;
  config.policy.max_batch = 4;
  config.policy.max_wait_us = 100;
  EnginePool pool(cell_, pruner_, config);
  std::atomic<int> served{0};
  LiveServer server(pool, [&](const Response&) { served.fetch_add(1); });

  // The stall window is deliberately generous: this test pins the
  // no-false-positive side, and a loaded CI machine can starve even a
  // healthy worker for tens of milliseconds.
  SupervisorConfig sup;
  sup.stall_ms = 1000;
  Supervisor supervisor(server, sup);
  supervisor.start();

  // Idle past a full stall window: an idle worker's frozen heartbeat
  // must not look like a wedge (inflight == 0 gates the check).
  ASSERT_TRUE(wait_until([&] {
    return all_heartbeats_stale(server, sup.stall_ms);
  }));
  // Then a burst of healthy traffic, served well inside the window.
  int accepted = 0;
  for (int i = 0; i < 200; ++i) {
    if (server
            .submit(static_cast<SessionId>(i % 6 + 1),
                    token_at(static_cast<SessionId>(i % 6 + 1),
                             static_cast<std::uint64_t>(i),
                             cell_.input_dim()))
            .has_value()) {
      ++accepted;
    }
  }
  ASSERT_TRUE(wait_until([&] { return served.load() >= accepted; }));
  // Linger another window drained-but-idle: stale heartbeat again,
  // inflight back to zero, still not a wedge.
  ASSERT_TRUE(wait_until([&] {
    return all_heartbeats_stale(server, sup.stall_ms);
  }));
  supervisor.stop();
  server.shutdown();

  // Reaching this line is the verdict: the watchdog did not abort.
  EXPECT_EQ(accepted, 200) << "healthy shards must never refuse a submit";
  EXPECT_EQ(server.submitted(), server.responded());
}

TEST_F(SupervisorTest, SubmissionRestartsAStaleIdleWorkersStallWindow) {
  // An idle worker's heartbeat ages without bound, and the worker stamps
  // a fresh one only after it wakes for new work. A watchdog poll in
  // that wake-up gap reads inflight > 0 next to the idle-old heartbeat,
  // so the submission itself must restart the stall window. The wedge
  // hook stretches the gap on purpose: the worker parks empty-handed,
  // its heartbeat goes stale, one request arrives, and the worker stays
  // parked for well under the stall window.
  PoolConfig config;
  config.shards = 1;
  config.policy.max_wait_us = 100;
  EnginePool pool(cell_, pruner_, config);
  std::atomic<int> served{0};
  LiveServer server(pool, [&](const Response&) { served.fetch_add(1); });
  SupervisorConfig sup;
  sup.stall_ms = 500;
  Supervisor supervisor(server, sup);
  supervisor.start();

  ShardWorker& worker = server.worker(0);
  // Let the worker settle into its idle wait, then wake it with a flush
  // (no work): its only stamp is that wakeup's, and then it parks.
  ASSERT_TRUE(wait_until([&] { return all_heartbeats_stale(server, 0); }));
  worker.wedge_for_testing();
  const std::int64_t idle_stamp = worker.heartbeat_us();
  worker.request_flush();
  ASSERT_TRUE(wait_until([&] { return worker.heartbeat_us() != idle_stamp; }));
  ASSERT_TRUE(wait_until([&] {
    return all_heartbeats_stale(server, sup.stall_ms);
  }));

  ASSERT_TRUE(server.submit(1, token_at(1, 0, cell_.input_dim())).has_value());
  // Ten watchdog polls with inflight == 1 while the worker is parked:
  // without the submission's stamp the first one would abort.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(10 * Supervisor::kPollMs));
  worker.release_wedge();
  ASSERT_TRUE(wait_until([&] { return served.load() == 1; }));
  supervisor.stop();
  server.shutdown();

  // Reaching this line is the verdict: the watchdog did not abort.
  EXPECT_EQ(server.submitted(), server.responded());
}

TEST_F(SupervisorTest, SlowSinkDeepBacklogIsBusyNotWedged) {
  // A healthy worker grinding a backlog through a slow sink can spend
  // far longer than the stall window inside ONE settle pass. The
  // heartbeat advances per response, so the watchdog must read it as
  // busy, never wedged — a false verdict would abort the process.
  PoolConfig config;
  config.shards = 1;
  config.policy.max_batch = 8;
  config.policy.max_wait_us = 100;
  EnginePool pool(cell_, pruner_, config);

  std::atomic<int> served{0};
  const ResponseSink sink = [&](const Response& r) {
    if (r.timed_out) return;
    // Slow consumer: 5ms per response. 60 responses ≈ 300ms of serving
    // inside one settle chain — three full stall windows.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    served.fetch_add(1);
  };
  LiveServer server(pool, sink);

  SupervisorConfig sup;
  sup.stall_ms = 100;
  Supervisor supervisor(server, sup);
  supervisor.start();

  // Park the worker so the whole load lands in one wakeup: 6 sessions
  // x 10 steps, same-session conflicts forcing ~10 chained batches.
  constexpr int kSessions = 6;
  constexpr std::uint64_t kSteps = 10;
  server.worker(0).wedge_for_testing();
  for (std::uint64_t i = 0; i < kSteps; ++i) {
    for (int s = 1; s <= kSessions; ++s) {
      ASSERT_TRUE(server
                      .submit(static_cast<SessionId>(s),
                              token_at(static_cast<SessionId>(s), i,
                                       cell_.input_dim()))
                      .has_value());
    }
  }
  server.worker(0).release_wedge();
  const int want = kSessions * static_cast<int>(kSteps);
  ASSERT_TRUE(wait_until([&] { return served.load() >= want; }));

  supervisor.stop();
  server.shutdown();

  // Reaching this line is the verdict: the watchdog did not abort.
  EXPECT_EQ(served.load(), want);
  EXPECT_EQ(server.submitted(), server.responded());
}

TEST_F(SupervisorTest, WedgedWorkerAbortsAndJournalRestartRecovers) {
  // The child process re-executes this body from the top (threadsafe
  // death tests re-run the test binary), so the journal dir must be the
  // same path in both processes. The parent names it after its own pid,
  // so concurrent runs of this binary never share it, and hands it to
  // the child through the environment.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  constexpr const char* kDirEnv = "ZSS_SUPERVISOR_ABORT_TEST_DIR";
  const char* inherited = std::getenv(kDirEnv);
  const std::string dir =
      inherited != nullptr
          ? std::string(inherited)
          : ::testing::TempDir() + "zss_supervisor_abort_test_" +
                std::to_string(::getpid());
  if (inherited == nullptr) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ::setenv(kDirEnv, dir.c_str(), /*overwrite=*/1);
  }

  PoolConfig config;
  config.shards = 2;
  config.policy.max_batch = 8;
  config.policy.max_wait_us = 100;
  config.spill.dir = dir;
  config.spill.journal = true;

  // One session per shard, chosen by the pool's own hash.
  SessionId wedged_sid = 0, healthy_sid = 0;
  {
    PoolConfig plain;
    plain.shards = config.shards;
    const EnginePool probe(cell_, pruner_, plain);
    for (SessionId sid = 1; wedged_sid == 0 || healthy_sid == 0; ++sid) {
      if (probe.shard_of(sid) == 0 && wedged_sid == 0) wedged_sid = sid;
      if (probe.shard_of(sid) == 1 && healthy_sid == 0) healthy_sid = sid;
    }
  }
  const num::Index vocab = cell_.input_dim();
  constexpr std::uint64_t kBefore = 6;
  constexpr std::uint64_t kQueued = 4;
  constexpr std::uint64_t kTotal = kBefore + kQueued;

  // The child: a journaled live server with the watchdog armed. Both
  // sessions commit kBefore acknowledged steps; then shard 0's worker
  // wedges holding queued work while shard 1 keeps serving, and the
  // watchdog must abort the process.
  const auto serve_until_abort = [&] {
    EnginePool pool(cell_, pruner_, config);
    LiveServer server(pool, [](const Response&) {});
    for (std::uint64_t i = 0; i < kBefore; ++i) {
      server.submit(wedged_sid, token_at(wedged_sid, i, vocab));
      server.submit(healthy_sid, token_at(healthy_sid, i, vocab));
    }
    wait_until([&] { return server.responded() == 2 * kBefore; });
    server.worker(0).wedge_for_testing();
    for (std::uint64_t i = kBefore; i < kTotal; ++i) {
      server.submit(wedged_sid, token_at(wedged_sid, i, vocab));
      server.submit(healthy_sid, token_at(healthy_sid, i, vocab));
    }
    Supervisor supervisor(server, SupervisorConfig{.stall_ms = 50});
    supervisor.start();
    // Far past stall_ms: only reached if the watchdog never fired.
    wait_until([] { return false; }, std::chrono::seconds(30));
    supervisor.stop();
    server.worker(0).release_wedge();
  };
  ASSERT_EXIT(serve_until_abort(), ::testing::KilledBySignal(SIGABRT),
              "zss watchdog: shard 0 wedged");

  // The restart: a fresh pool over the same dir recovers what was
  // committed. The wedged shard served nothing past the prefix.
  EnginePool pool(cell_, pruner_, config);
  const DigestTable recovered = pool.merged_digests();
  ASSERT_EQ(recovered.count(wedged_sid), 1u);
  ASSERT_EQ(recovered.count(healthy_sid), 1u);
  EXPECT_EQ(recovered.at(wedged_sid).steps, kBefore);
  EXPECT_GE(recovered.at(healthy_sid).steps, kBefore);

  // Clients resume from the committed position (`sync`/`pos`) and
  // re-drive the unacknowledged suffix on the restarted server.
  {
    LiveServer server(pool, [](const Response&) {});
    for (const SessionId sid : {wedged_sid, healthy_sid}) {
      for (std::uint64_t i = recovered.at(sid).steps; i < kTotal; ++i) {
        ASSERT_TRUE(server.submit(sid, token_at(sid, i, vocab)).has_value());
      }
    }
    server.shutdown();
  }

  // The uninterrupted oracle over the same token streams.
  PoolConfig oracle_config;
  oracle_config.policy.max_wait_us = 0;
  EnginePool oracle(cell_, pruner_, oracle_config);
  const ResponseSink oracle_sink = [](const Response&) {};
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    for (const SessionId sid : {wedged_sid, healthy_sid}) {
      Request r;
      r.session = sid;
      r.token = token_at(sid, i, vocab);
      r.arrival_us = static_cast<std::int64_t>(i);
      oracle.enqueue(r);
    }
    oracle.flush(static_cast<std::int64_t>(i), oracle_sink);
  }
  const DigestTable want = oracle.merged_digests();
  const DigestTable got = pool.merged_digests();
  for (const SessionId sid : {wedged_sid, healthy_sid}) {
    EXPECT_EQ(want.at(sid).steps, kTotal);
    EXPECT_EQ(got.at(sid).steps, want.at(sid).steps) << "session " << sid;
    EXPECT_EQ(got.at(sid).digest, want.at(sid).digest)
        << "session " << sid << ": abort + restart + resume diverged from "
        << "the uninterrupted recurrence";
  }
  std::filesystem::remove_all(dir);
  ::unsetenv(kDirEnv);
}

}  // namespace
}  // namespace zss::serve
