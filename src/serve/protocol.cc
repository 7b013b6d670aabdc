#include "serve/protocol.h"

#include <cinttypes>
#include <cstdio>

namespace zss::serve {

namespace {

ParseStatus fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return ParseStatus::kError;
}

constexpr std::string_view kWs = " \t\r\n";

/// Pops the next whitespace-separated field off `rest` (empty if none).
/// No allocation — the ingest loop parses every live request with this.
std::string_view next_field(std::string_view& rest) {
  const auto begin = rest.find_first_not_of(kWs);
  if (begin == std::string_view::npos) {
    rest = {};
    return {};
  }
  const auto end = rest.find_first_of(kWs, begin);
  const std::string_view field = rest.substr(begin, end - begin);
  rest = end == std::string_view::npos ? std::string_view{} : rest.substr(end);
  return field;
}

/// Strict non-negative token parse: digits only, fits in num::Index.
bool parse_token(std::string_view field, num::Index& out) {
  SessionId v = 0;
  if (!parse_session_id(field, v) ||
      v > static_cast<SessionId>(std::numeric_limits<num::Index>::max())) {
    return false;
  }
  out = static_cast<num::Index>(v);
  return true;
}

}  // namespace

ParseStatus parse_command(std::string_view line, CommandLine& out,
                          std::string* error) {
  std::string_view rest = line;
  const std::string_view verb = next_field(rest);
  if (verb.empty() || verb.front() == '#') return ParseStatus::kBlank;
  if (verb == "step") {
    // Same strictness as the trace parser: a trailing field usually
    // means a lost newline merged two commands, and serving half of a
    // corrupted line would surface later as a digest mismatch. The
    // numeric fields go through the digits-only parses — stream
    // extraction would wrap a negative session id modulo 2^64.
    const std::string_view session_field = next_field(rest);
    const std::string_view token_field = next_field(rest);
    if (!parse_session_id(session_field, out.session) ||
        !parse_token(token_field, out.token) || !next_field(rest).empty()) {
      return fail(error, "malformed step command (want: step SESSION TOKEN): " +
                             std::string(line));
    }
    out.op = CommandLine::Op::kStep;
    return ParseStatus::kCommand;
  }
  if (verb == "sync") {
    const std::string_view session_field = next_field(rest);
    if (!parse_session_id(session_field, out.session) ||
        !next_field(rest).empty()) {
      return fail(error, "malformed sync command (want: sync SESSION): " +
                             std::string(line));
    }
    out.op = CommandLine::Op::kSync;
    return ParseStatus::kCommand;
  }
  if (verb == "flush" || verb == "stats" || verb == "quit") {
    if (!next_field(rest).empty()) {
      return fail(error, "trailing fields after '" + std::string(verb) +
                             "': " + std::string(line));
    }
    out.op = verb == "flush"   ? CommandLine::Op::kFlush
             : verb == "stats" ? CommandLine::Op::kStats
                               : CommandLine::Op::kQuit;
    return ParseStatus::kCommand;
  }
  return fail(error, "unknown command verb: " + std::string(verb));
}

std::string format_response(const Response& r) {
  return format_response(r, digest_row(r.h));
}

std::string format_response(const Response& r, std::uint64_t digest) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "ok %" PRIu64 " %" PRIu64 " %lld %016" PRIx64, r.session,
                r.seq, static_cast<long long>(r.batch), digest);
  return buf;
}

std::string format_error(std::string_view message) {
  return "err " + std::string(message);
}

std::string format_greeting(std::uint64_t conn) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "hi %" PRIu64, conn);
  return buf;
}

std::string format_bye(std::uint64_t submitted, std::uint64_t responses) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "bye submitted=%" PRIu64 " responses=%" PRIu64,
                submitted, responses);
  return buf;
}

std::string format_pos(SessionId session, const SessionDigest& d) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "pos %" PRIu64 " %" PRIu64 " %016" PRIx64,
                session, d.steps, d.digest);
  return buf;
}

std::string format_stats(const StatsSnapshot& s) {
  char buf[448];
  std::snprintf(buf, sizeof(buf),
                "stat submitted=%" PRIu64 " responses=%" PRIu64
                " shed=%" PRIu64 " now_us=%lld created=%" PRIu64
                " ttl_resets=%" PRIu64 " evicted=%" PRIu64
                " spilled=%" PRIu64 " restored=%" PRIu64
                " restore_corrupt=%" PRIu64 " spill_active=%lld/%lld"
                " timeouts=%" PRIu64 " journal_active=%lld/%lld durability=%s",
                s.submitted, s.responses, s.shed,
                static_cast<long long>(s.now_us), s.created, s.ttl_resets,
                s.evicted, s.spilled, s.restored, s.restore_corrupt,
                static_cast<long long>(s.spill_active),
                static_cast<long long>(s.shards), s.timeouts,
                static_cast<long long>(s.journal_active),
                static_cast<long long>(s.shards),
                s.durability.empty() ? "off" : s.durability.c_str());
  // Model identity appended after the counters so existing key
  // positions never move. The name is caller data of unbounded length,
  // so this tail goes through std::string, not the fixed buffer.
  std::string line = buf;
  char tail[128];
  std::snprintf(tail, sizeof(tail), " layers=%lld dh=%lld vocab=%lld quant=%s",
                static_cast<long long>(s.layers), static_cast<long long>(s.dh),
                static_cast<long long>(s.vocab), s.quant ? "int8" : "off");
  line += " model=";
  line += s.model.empty() ? "random" : s.model;
  line += tail;
  return line;
}

}  // namespace zss::serve
