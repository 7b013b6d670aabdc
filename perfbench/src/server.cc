#include "server.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "loadgen.h"

namespace perfbench {

std::vector<std::string> model_flags(const Workload& w) {
  char thr[32];
  std::snprintf(thr, sizeof thr, "%.6g", static_cast<double>(w.threshold));
  std::vector<std::string> f = {
      "--dh=" + std::to_string(w.dh), "--dx=" + std::to_string(w.dx),
      std::string("--threshold=") + thr,
      "--seed=" + std::to_string(kModelSeed),
      "--max-batch=" + std::to_string(kMaxBatch)};
  if (w.quant) f.push_back("--quant");
  return f;
}

std::vector<std::string> live_flags(const Workload& w,
                                    const std::string& socket_path,
                                    const std::string& spill_dir) {
  std::vector<std::string> f = {"--live", "--socket=" + socket_path,
                                "--shards=" + std::to_string(kShards)};
  const auto m = model_flags(w);
  f.insert(f.end(), m.begin(), m.end());
  if (w.journal) {
    f.push_back("--durability=journal");
    // Without fsync: on the shared virtual machine the benchmark was tuned
    // on, fdatasync latency swings by 10x from second to second
    // (perfbench/README.md); Journal::commit with fsync is timed on its
    // own by the traced run.
    f.push_back("--journal-sync=none");
    f.push_back("--spill-dir=" + spill_dir);
  }
  if (w.max_sessions > 0) {
    f.push_back("--max-sessions=" + std::to_string(w.max_sessions));
  }
  return f;
}

ServerProcess::~ServerProcess() { kill_hard(); }

bool ServerProcess::start(const std::string& exe,
                          const std::vector<std::string>& args,
                          const std::string& log_path) {
  kill_hard();
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) return false;
  started_ns_ = now_ns();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return false;
  }
  if (pid == 0) {
    // Dies with the benchmark, whatever way the benchmark ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    pin_to_server_cpus();
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    const int null_fd = ::open("/dev/null", O_RDONLY);
    if (null_fd >= 0) ::dup2(null_fd, STDIN_FILENO);
    ::execv(exe.c_str(), argv.data());
    _exit(127);
  }
  ::close(log_fd);
  pid_ = pid;
  return true;
}

double ServerProcess::cpu_seconds() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name: state is field 3,
  // utime and stime are fields 14 and 15.
  const std::size_t close = all.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(all.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double ServerProcess::peak_rss_mb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

namespace {

double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  unsigned long long v[8] = {};
  in >> cpu;
  for (auto& x : v) in >> x;
  return static_cast<double>(v[7]) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

}  // namespace

StealMeter::StealMeter() : steal0_(steal_seconds()), t0_(now_ns()) {}

double StealMeter::pct() const {
  const double cpu_seconds = static_cast<double>(now_ns() - t0_) / 1e9 *
                             static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
  return cpu_seconds <= 0.0 ? 0.0
                            : 100.0 * (steal_seconds() - steal0_) / cpu_seconds;
}

bool ServerProcess::wait_exit(int timeout_ms, int* status) {
  if (pid_ <= 0) return true;
  const std::int64_t deadline = now_ns() + std::int64_t{timeout_ms} * 1000000;
  for (;;) {
    int st = 0;
    const pid_t r = ::waitpid(pid_, &st, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      if (status != nullptr) *status = st;
      return true;
    }
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void ServerProcess::kill_hard() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int st = 0;
  ::waitpid(pid_, &st, 0);
  pid_ = -1;
}

bool replay_digests(const std::string& exe, const Workload& w,
                    const std::vector<TraceLine>& events,
                    const std::string& work_dir,
                    std::map<std::uint64_t, zss::serve::SessionDigest>* out,
                    std::string* error) {
  // A session's outputs depend only on its own requests, so the trace
  // is split by session over one 1-shard replay per server CPU; each
  // part keeps the send order. Arrival stamps are compressed to
  // kMaxBatch requests per virtual microsecond so the replay serves
  // full batches — grouping never changes a session's outputs
  // (docs/serving.md).
  const int parts = std::max(1, static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN)) - 1);
  std::vector<std::vector<const TraceLine*>> split(static_cast<std::size_t>(parts));
  for (const TraceLine& e : events) {
    split[e.session % static_cast<std::uint64_t>(parts)].push_back(&e);
  }
  std::vector<ServerProcess> replays(static_cast<std::size_t>(parts));
  auto path = [&](const char* what, int p) {
    return work_dir + "/oracle_" + what + "_" + std::to_string(p) + ".txt";
  };
  for (int p = 0; p < parts; ++p) {
    std::FILE* f = std::fopen(path("trace", p).c_str(), "w");
    if (f == nullptr) {
      *error = "cannot write " + path("trace", p);
      return false;
    }
    const auto& part = split[static_cast<std::size_t>(p)];
    for (std::size_t i = 0; i < part.size(); ++i) {
      std::fprintf(f, "%zu %" PRIu64 " %d\n", i / kMaxBatch, part[i]->session,
                   part[i]->token);
    }
    std::fclose(f);
    std::vector<std::string> args = {"--trace=" + path("trace", p),
                                     "--shards=1",
                                     "--digests=" + path("digests", p)};
    const auto m = model_flags(w);
    args.insert(args.end(), m.begin(), m.end());
    if (!replays[static_cast<std::size_t>(p)].start(exe, args,
                                                    work_dir + "/oracle.log")) {
      *error = "cannot start the replay oracle";
      return false;
    }
  }
  out->clear();
  for (int p = 0; p < parts; ++p) {
    ServerProcess& replay = replays[static_cast<std::size_t>(p)];
    int status = 0;
    if (!replay.wait_exit(150000, &status)) {
      *error = "replay oracle timed out";
      return false;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      *error = "replay oracle failed (see " + work_dir + "/oracle.log)";
      return false;
    }
    std::ifstream in(path("digests", p));
    std::string word, hex;
    std::uint64_t id = 0, steps = 0;
    while (in >> word >> id >> word >> steps >> word >> hex) {
      zss::serve::SessionDigest d;
      d.steps = steps;
      d.digest = std::strtoull(hex.c_str(), nullptr, 16);
      (*out)[id] = d;
    }
  }
  return true;
}

}  // namespace perfbench
