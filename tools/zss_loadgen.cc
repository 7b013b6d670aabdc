// zss_loadgen — multi-client load/churn driver for the live front end.
//
// Spawns N protocol clients (one thread each, mixed UNIX + TCP when
// both endpoints are given) against a running `zss_serve --live
// --socket/--tcp` instance, drives seeded step bursts through several
// connect/disconnect lives per client, and verifies the front end's
// client-visible contract:
//
//   * routing — each client owns a disjoint session range, so an "ok"
//     for a foreign session is a misrouted delivery (hard failure);
//   * no loss — clients that close politely account for every line
//     they sent: ok + err == sent, exactly (a --rude tail of clients
//     drops dead without reading, exercising the EPIPE/drop path; no
//     accounting is possible for them by design — the server-side
//     record/replay digest gate covers their requests instead);
//   * per-session ordering — seq strictly increases within a session.
//
// --resume switches to the crash-tolerant driver: deterministic
// per-session token plans, reconnect with bounded exponential backoff
// (serve::ResumingClient), and `sync`-anchored idempotent re-drive of
// uncommitted suffixes, so a `kill -9` of the server mid-storm plus a
// restart with --durability=journal still ends with every session at
// its planned length and no committed step lost (CI's chaos job).
//
// CI drives 64 mixed clients with churn against a recording server,
// then replays the recording at several shard counts and diffs digest
// tables (.github/workflows/ci.yml, live-smoke).
//
//   zss_serve --live --socket=/tmp/zss.sock --tcp=9777 --record=r.txt &
//   zss_loadgen --socket=/tmp/zss.sock --tcp=9777 --clients=64
//               --steps=40 --lives=3 --rude=8 --quit   (one command line)
//
// Exits 0 only if every check passed.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "serve/client.h"
#include "serve/request.h"

namespace {

using namespace zss;

struct Args {
  std::string socket_path;
  std::string tcp_host = "127.0.0.1";
  int tcp_port = -1;
  int clients = 64;
  int steps = 40;        // per client, across all lives
  int lives = 3;         // connect/disconnect cycles per client
  int rude = 0;          // clients (from the tail) that drop dead
  int sessions = 4;      // sessions per client (disjoint ranges)
  int vocab = 5;         // token range, must be < server --dx
  std::uint64_t seed = 1;
  bool quit = false;     // send `quit` after the storm
  // --resume: crash-tolerant mode. Each client drives deterministic
  // per-session token streams and survives server restarts by
  // reconnecting with bounded exponential backoff, asking `sync` where
  // each session's committed prefix ends, and re-driving only the
  // uncommitted suffix (idempotent resume). Exit 0 means every session
  // reached its planned length and no committed step was ever lost.
  bool resume = false;
  int chunk = 16;        // resume mode: steps pipelined per sync round
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* name) -> const char* {
      const std::string prefix = std::string("--") + name + "=";
      return a.rfind(prefix, 0) == 0 ? a.c_str() + prefix.size() : nullptr;
    };
    if (const char* v = value("socket")) {
      args.socket_path = v;
    } else if (const char* v = value("tcp-host")) {
      args.tcp_host = v;
    } else if (const char* v = value("tcp")) {
      args.tcp_port = std::atoi(v);
    } else if (const char* v = value("clients")) {
      args.clients = std::atoi(v);
    } else if (const char* v = value("steps")) {
      args.steps = std::atoi(v);
    } else if (const char* v = value("lives")) {
      args.lives = std::atoi(v);
    } else if (const char* v = value("rude")) {
      args.rude = std::atoi(v);
    } else if (const char* v = value("sessions")) {
      args.sessions = std::atoi(v);
    } else if (const char* v = value("vocab")) {
      args.vocab = std::atoi(v);
    } else if (const char* v = value("seed")) {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("chunk")) {
      args.chunk = std::atoi(v);
    } else if (a == "--resume") {
      args.resume = true;
    } else if (a == "--quit") {
      args.quit = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
  }
  if (args.socket_path.empty() && args.tcp_port < 0) {
    std::fprintf(stderr, "need --socket=PATH and/or --tcp=PORT\n");
    return false;
  }
  if (args.clients < 1 || args.steps < 1 || args.lives < 1 ||
      args.sessions < 1 || args.sessions > 90 || args.vocab < 1 ||
      args.rude < 0 || args.rude > args.clients || args.chunk < 1) {
    std::fprintf(stderr, "invalid flag value\n");
    return false;
  }
  if (args.resume && args.rude > 0) {
    std::fprintf(stderr, "--resume and --rude are mutually exclusive\n");
    return false;
  }
  return true;
}

/// Connects (UNIX for even clients, TCP for odd, when both endpoints
/// exist), retrying for a few seconds — CI starts the server in the
/// background and races us to the bind.
bool connect_client(const Args& args, int client, serve::ClientConn& c,
                    std::string* error) {
  const bool use_tcp =
      args.tcp_port >= 0 && (args.socket_path.empty() || client % 2 == 1);
  for (int attempt = 0; attempt < 100; ++attempt) {
    const bool ok = use_tcp
                        ? c.connect_tcp(args.tcp_host, args.tcp_port, error)
                        : c.connect_unix(args.socket_path, error);
    if (ok) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return false;
}

struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t oks = 0;
  std::uint64_t errs = 0;
  std::uint64_t misrouted = 0;
  std::uint64_t orphaned = 0;
  std::uint64_t out_of_order = 0;
  bool connect_failed = false;
};

void run_client(const Args& args, int client, Tally& tally) {
  std::mt19937_64 rng(args.seed * 6364136223846793005ULL +
                      static_cast<std::uint64_t>(client));
  const auto base = static_cast<serve::SessionId>(100 * client + 1);
  const bool rude = client >= args.clients - args.rude;
  const int per_life = (args.steps + args.lives - 1) / args.lives;
  std::map<serve::SessionId, std::uint64_t> last_seq;

  int remaining = args.steps;
  for (int life = 0; life < args.lives && remaining > 0; ++life) {
    serve::ClientConn c;
    std::string error;
    if (!connect_client(args, client, c, &error)) {
      std::fprintf(stderr, "client %d: %s\n", client, error.c_str());
      tally.connect_failed = true;
      return;
    }
    std::string line;
    if (!c.read_line(&line, 10000) || line.rfind("hi ", 0) != 0) {
      std::fprintf(stderr, "client %d: bad greeting\n", client);
      tally.connect_failed = true;
      return;
    }

    const int burst = std::min(per_life, remaining);
    remaining -= burst;
    std::string blob;
    for (int i = 0; i < burst; ++i) {
      const serve::SessionId sid =
          base + static_cast<serve::SessionId>(
                     rng() % static_cast<std::uint64_t>(args.sessions));
      blob += "step " + std::to_string(sid) + " " +
              std::to_string(rng() % static_cast<std::uint64_t>(args.vocab)) +
              "\n";
    }
    // Random chunking: frame boundaries land anywhere, including mid
    // connection teardown for the rude tail.
    std::size_t off = 0;
    while (off < blob.size()) {
      const std::size_t chunk = std::min<std::size_t>(
          blob.size() - off, 1 + static_cast<std::size_t>(rng() % 64));
      if (::send(c.fd(), blob.data() + off, chunk, MSG_NOSIGNAL) < 0) break;
      off += chunk;
    }

    if (rude) {
      c.close();  // mid-request, nothing read: the EPIPE/drop path
      continue;
    }

    const bool half_open = rng() % 4 == 0;
    if (half_open) c.shutdown_write();
    std::uint64_t owed = static_cast<std::uint64_t>(burst);
    tally.sent += owed;
    while (owed > 0) {
      if (!c.read_line(&line, 15000)) {
        tally.orphaned += owed;
        break;
      }
      if (line.rfind("ok ", 0) == 0) {
        unsigned long long sid = 0, seq = 0;
        if (std::sscanf(line.c_str(), "ok %llu %llu", &sid, &seq) == 2) {
          if (sid < base ||
              sid >= base + static_cast<unsigned long long>(args.sessions)) {
            ++tally.misrouted;
          } else {
            auto [it, fresh] = last_seq.try_emplace(sid, seq);
            if (!fresh) {
              if (seq <= it->second) ++tally.out_of_order;
              it->second = seq;
            }
          }
        }
        ++tally.oks;
        --owed;
      } else if (line.rfind("err ", 0) == 0) {
        ++tally.errs;
        --owed;
      }
    }
    c.close();
  }
}

struct ResumeTally {
  std::uint64_t acked = 0;        // "ok" lines credited to this client
  std::uint64_t redriven = 0;     // steps sent more than once (suffix replay)
  std::uint64_t reconnects = 0;
  std::uint64_t err_retries = 0;  // chunks re-synced after an err reply
  std::uint64_t lost_commits = 0; // sync went backwards — durability broken
  std::uint64_t misrouted = 0;
  bool failed = false;
};

/// Crash-tolerant driver for one client: deterministic per-session
/// token plans, sync-then-drive chunks, reconnect with backoff on any
/// failure. The server's `pos` reply is the only source of truth for
/// progress — the client never assumes an unacked send was applied, so
/// a kill -9 at any point (even mid-chunk) re-drives exactly the
/// uncommitted suffix and the final digest table matches an
/// uninterrupted run.
void run_resume_client(const Args& args, int client, ResumeTally& tally) {
  const auto base = static_cast<serve::SessionId>(100 * client + 1);
  const int sessions = args.sessions;

  // Deterministic plans: session s of client k always gets the same
  // token stream, so any two runs (interrupted or not) drive identical
  // per-session inputs.
  std::vector<std::vector<int>> plan(static_cast<std::size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    const int n = args.steps / sessions + (s < args.steps % sessions ? 1 : 0);
    std::mt19937_64 rng(args.seed * 6364136223846793005ULL +
                        static_cast<std::uint64_t>(client) * 1000003ULL +
                        static_cast<std::uint64_t>(s));
    auto& tokens = plan[static_cast<std::size_t>(s)];
    tokens.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      tokens.push_back(
          static_cast<int>(rng() % static_cast<std::uint64_t>(args.vocab)));
    }
  }

  serve::ResumeEndpoint ep;
  const bool use_tcp =
      args.tcp_port >= 0 && (args.socket_path.empty() || client % 2 == 1);
  if (use_tcp) {
    ep.tcp_host = args.tcp_host;
    ep.tcp_port = args.tcp_port;
  } else {
    ep.unix_path = args.socket_path;
  }
  serve::ResumingClient rc(ep);
  std::string error;
  if (!rc.connect(&error)) {
    std::fprintf(stderr, "client %d: %s\n", client, error.c_str());
    tally.failed = true;
    return;
  }

  std::vector<std::uint64_t> high(static_cast<std::size_t>(sessions), 0);
  std::vector<std::uint64_t> sent_high(static_cast<std::size_t>(sessions), 0);
  bool all_done = false;
  while (!all_done) {
    all_done = true;
    for (int s = 0; s < sessions; ++s) {
      const auto sid = base + static_cast<serve::SessionId>(s);
      const auto& tokens = plan[static_cast<std::size_t>(s)];
      serve::SyncedPos pos;
      if (!rc.sync(sid, &pos, 15000, &error)) {
        if (!rc.connect(&error)) {
          std::fprintf(stderr, "client %d: %s\n", client, error.c_str());
          tally.failed = true;
          return;
        }
        ++tally.reconnects;
        all_done = false;
        continue;
      }
      if (pos.steps < high[static_cast<std::size_t>(s)]) {
        // The server once answered `pos` (or "ok") past this point:
        // those steps were committed. Seeing them gone after a restart
        // is exactly the data loss the journal exists to prevent.
        std::fprintf(stderr,
                     "client %d session %llu: committed steps lost "
                     "(had %llu, sync says %llu)\n",
                     client, (unsigned long long)sid,
                     (unsigned long long)high[static_cast<std::size_t>(s)],
                     (unsigned long long)pos.steps);
        ++tally.lost_commits;
        tally.failed = true;
        return;
      }
      high[static_cast<std::size_t>(s)] = pos.steps;
      if (pos.steps > tokens.size()) {
        std::fprintf(stderr, "client %d session %llu: server ahead of plan\n",
                     client, (unsigned long long)sid);
        tally.failed = true;
        return;
      }
      if (pos.steps == tokens.size()) continue;  // session complete
      all_done = false;

      // Drive the next chunk of the uncommitted suffix, pipelined.
      const std::size_t from = pos.steps;
      const std::size_t n = std::min<std::size_t>(
          static_cast<std::size_t>(args.chunk), tokens.size() - from);
      bool send_ok = true;
      for (std::size_t i = 0; i < n && send_ok; ++i) {
        auto& sh = sent_high[static_cast<std::size_t>(s)];
        if (from + i < sh) {
          ++tally.redriven;
        } else {
          sh = from + i + 1;
        }
        send_ok = rc.send_line("step " + std::to_string(sid) + " " +
                               std::to_string(tokens[from + i]));
      }
      std::uint64_t got = 0;
      bool resync = false;
      std::string line;
      while (send_ok && got < n) {
        if (!rc.read_line(&line, 15000)) {
          resync = true;
          break;
        }
        if (line.rfind("ok ", 0) == 0) {
          unsigned long long ok_sid = 0, seq = 0;
          if (std::sscanf(line.c_str(), "ok %llu %llu", &ok_sid, &seq) == 2 &&
              ok_sid != sid) {
            ++tally.misrouted;  // only this session has steps in flight
            tally.failed = true;
            return;
          }
          ++got;
          ++tally.acked;
        } else if (line.rfind("err ", 0) == 0) {
          // timeout / shed: the step was dropped before touching state
          // — resync and re-drive. Brief pause so an overloaded shard
          // has time to drain.
          ++tally.err_retries;
          resync = true;
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          break;
        }
        // pos lines from an earlier timed-out sync: skip.
      }
      if (!send_ok || (resync && !rc.conn().connected())) {
        if (!rc.connect(&error)) {
          std::fprintf(stderr, "client %d: %s\n", client, error.c_str());
          tally.failed = true;
          return;
        }
        ++tally.reconnects;
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(
        stderr,
        "usage: zss_loadgen (--socket=PATH | --tcp=PORT [--tcp-host=H])\n"
        "                   [--clients=N] [--steps=N] [--lives=N]\n"
        "                   [--rude=N] [--sessions=N] [--vocab=N]\n"
        "                   [--seed=S] [--quit] [--resume] [--chunk=N]\n");
    return 2;
  }

  if (args.resume) {
    std::vector<ResumeTally> tallies(static_cast<std::size_t>(args.clients));
    std::vector<std::thread> threads;
    for (int k = 0; k < args.clients; ++k) {
      threads.emplace_back([&, k] {
        run_resume_client(args, k, tallies[static_cast<std::size_t>(k)]);
      });
    }
    for (auto& t : threads) t.join();

    ResumeTally total;
    bool failed = false;
    for (const ResumeTally& t : tallies) {
      total.acked += t.acked;
      total.redriven += t.redriven;
      total.reconnects += t.reconnects;
      total.err_retries += t.err_retries;
      total.lost_commits += t.lost_commits;
      total.misrouted += t.misrouted;
      failed |= t.failed;
    }

    bool quit_ok = true;
    if (args.quit) {
      serve::ResumeEndpoint ep;
      if (args.tcp_port >= 0 && args.socket_path.empty()) {
        ep.tcp_host = args.tcp_host;
        ep.tcp_port = args.tcp_port;
      } else {
        ep.unix_path = args.socket_path;
      }
      serve::ResumingClient rc(ep);
      std::string error, line, last;
      if (!rc.connect(&error) || !rc.send_line("quit")) {
        std::fprintf(stderr, "quit connection failed: %s\n", error.c_str());
        quit_ok = false;
      } else {
        while (rc.read_line(&line, 15000)) last = line;
        quit_ok = rc.conn().eof() && last.rfind("bye ", 0) == 0;
        if (!quit_ok) {
          std::fprintf(stderr, "no bye on quit (last line: %s)\n",
                       last.c_str());
        }
      }
    }

    std::printf(
        "zss_loadgen: resume clients=%d acked=%llu redriven=%llu "
        "reconnects=%llu err_retries=%llu lost_commits=%llu misrouted=%llu\n",
        args.clients, (unsigned long long)total.acked,
        (unsigned long long)total.redriven,
        (unsigned long long)total.reconnects,
        (unsigned long long)total.err_retries,
        (unsigned long long)total.lost_commits,
        (unsigned long long)total.misrouted);
    if (failed || total.lost_commits > 0 || total.misrouted > 0 || !quit_ok) {
      std::fprintf(stderr, "zss_loadgen: resume run FAILED\n");
      return 1;
    }
    return 0;
  }

  std::vector<Tally> tallies(static_cast<std::size_t>(args.clients));
  std::vector<std::thread> threads;
  for (int k = 0; k < args.clients; ++k) {
    threads.emplace_back(
        [&, k] { run_client(args, k, tallies[static_cast<std::size_t>(k)]); });
  }
  for (auto& t : threads) t.join();

  Tally total;
  bool connect_failed = false;
  for (const Tally& t : tallies) {
    total.sent += t.sent;
    total.oks += t.oks;
    total.errs += t.errs;
    total.misrouted += t.misrouted;
    total.orphaned += t.orphaned;
    total.out_of_order += t.out_of_order;
    connect_failed |= t.connect_failed;
  }

  bool quit_ok = true;
  if (args.quit) {
    // One last connection asks the server to shut down; the final line
    // it reads must be the bye.
    serve::ClientConn c;
    std::string error, line, last;
    if (!connect_client(args, 0, c, &error) || !c.read_line(&line, 10000) ||
        !c.send_line("quit")) {
      std::fprintf(stderr, "quit connection failed: %s\n", error.c_str());
      quit_ok = false;
    } else {
      while (c.read_line(&line, 15000)) last = line;
      quit_ok = c.eof() && last.rfind("bye ", 0) == 0;
      if (!quit_ok) {
        std::fprintf(stderr, "no bye on quit (last line: %s)\n", last.c_str());
      }
    }
  }

  std::printf("zss_loadgen: clients=%d sent=%llu ok=%llu err=%llu "
              "misrouted=%llu orphaned=%llu out_of_order=%llu\n",
              args.clients, static_cast<unsigned long long>(total.sent),
              static_cast<unsigned long long>(total.oks),
              static_cast<unsigned long long>(total.errs),
              static_cast<unsigned long long>(total.misrouted),
              static_cast<unsigned long long>(total.orphaned),
              static_cast<unsigned long long>(total.out_of_order));

  const bool books_balance = total.oks + total.errs == total.sent;
  if (!books_balance) {
    std::fprintf(stderr, "zss_loadgen: ok+err != sent — responses lost\n");
  }
  if (total.misrouted > 0 || total.orphaned > 0 || total.out_of_order > 0 ||
      connect_failed || !books_balance || !quit_ok) {
    return 1;
  }
  return 0;
}
