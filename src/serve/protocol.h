// Line-oriented streaming protocol of the live serving front end.
//
// One request or response per '\n'-terminated line, ASCII, space
// separated — greppable, scriptable, and exactly expressive enough to
// drive the engine (tools/zss_serve --live speaks it on stdin/stdout
// or a UNIX socket). Grammar (docs/serving.md "Live mode"):
//
//   client line  = "step" SP session SP token     ; one token, one session
//                | "flush"                        ; serve all queued now
//                | "stats"                        ; server counters
//                | "sync" SP session              ; committed position query
//                | "quit"                         ; graceful shutdown
//                | "#" ...                        ; comment, ignored
//                | <blank>                        ; ignored
//
//   server line  = "hi" SP conn                  ; socket greeting only
//                | "ok" SP session SP seq SP batch SP digest
//                | "err" SP message
//                | "stat" SP key "=" value ...   ; format_stats() below
//                | "pos" SP session SP steps SP digest   ; reply to sync
//                | "bye" SP "submitted=" n SP "responses=" n
//
// `digest` is the 16-hex-digit FNV-1a of the session's new hidden row
// — the serving layer's observable output, compact enough to stream.
// Responses are asynchronous: "ok" lines appear when batches close,
// not in lockstep with input lines (per-session order is guaranteed,
// global interleaving is not). Parsing is strict the same way the
// trace parser is: a malformed line (unknown verb, missing or trailing
// fields, unparsable numbers) is reported, never guessed at.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "serve/digest.h"
#include "serve/request.h"

namespace zss::serve {

/// Strict session-id field parse: decimal digits only, no sign, fits
/// in 64 bits. Stream extraction into the unsigned SessionId would
/// accept "-7" by wrapping modulo 2^64 (strtoull semantics, failbit
/// clear) — a corrupted line served as a phantom session instead of
/// rejected. Shared by the protocol and trace parsers.
inline bool parse_session_id(std::string_view field, SessionId& out) {
  if (field.empty()) return false;
  std::uint64_t v = 0;
  for (const char ch : field) {
    if (ch < '0' || ch > '9') return false;
    const auto d = static_cast<std::uint64_t>(ch - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - d) / 10) return false;
    v = v * 10 + d;
  }
  out = v;
  return true;
}

/// Folds one response into its session's rolling digest and returns
/// the row digest — computed exactly once, so a live sink can share it
/// with the protocol "ok" line instead of hashing the row twice.
/// (SessionDigest/DigestTable themselves live in serve/digest.h; the
/// session store owns the authoritative table since the journal PR.)
inline std::uint64_t fold_response(DigestTable& table, const Response& r) {
  const std::uint64_t row = digest_row(r.h);
  fold_row_digest(table[r.session], row);
  return row;
}

struct CommandLine {
  enum class Op { kStep, kFlush, kStats, kSync, kQuit };
  Op op = Op::kStep;
  SessionId session = 0;  // kStep and kSync
  num::Index token = 0;   // kStep only
};

enum class ParseStatus {
  kCommand,  // `out` holds a parsed command
  kBlank,    // blank or comment line — nothing to do
  kError,    // malformed — `error` says why; the line must be rejected
};

/// Parses one client line. Strict: extra fields, missing fields,
/// negative tokens and unknown verbs are kError, never guessed at.
ParseStatus parse_command(std::string_view line, CommandLine& out,
                          std::string* error);

/// "ok <session> <seq> <batch> <digest>" for a served response.
std::string format_response(const Response& r);

/// Same, with the row digest precomputed by the caller (the serving
/// hot path hashes the row once and shares it with its digest table).
std::string format_response(const Response& r, std::uint64_t digest);

/// "err <message>".
std::string format_error(std::string_view message);

/// "hi <conn>" — the multiplexed front end's per-connection greeting
/// (first line a socket client reads; stdin mode sends none). The
/// connection id is diagnostic only: responses are already routed to
/// the issuing connection, so clients never need to echo it back.
std::string format_greeting(std::uint64_t conn);

/// "bye submitted=<n> responses=<n>" — last line before the server
/// closes a stream (graceful shutdown).
std::string format_bye(std::uint64_t submitted, std::uint64_t responses);

/// "pos <session> <steps> <digest>" — reply to "sync <session>": the
/// session's committed position in the server's authoritative digest
/// table (steps=0 digest=fnv-offset when the session is unknown). A
/// reconnecting client compares this against its own ledger and
/// re-drives only the suffix the server never committed — the
/// idempotent-resume half of crash recovery.
std::string format_pos(SessionId session, const SessionDigest& d);

/// Everything one "stat" line reports: the live server's request
/// counters plus the session-store counters summed over all shards
/// (each is a relaxed-atomic lifetime counter — serve/session.h — so
/// the ingest thread can snapshot them while shard workers run).
struct StatsSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t responses = 0;
  std::uint64_t shed = 0;
  std::int64_t now_us = 0;
  std::uint64_t created = 0;
  std::uint64_t ttl_resets = 0;
  std::uint64_t evicted = 0;
  std::uint64_t spilled = 0;
  std::uint64_t restored = 0;
  std::uint64_t restore_corrupt = 0;
  /// Shards whose spill tier is attached and accepting writes. With a
  /// --spill-dir configured, spill_active < shards means the
  /// write-error policy degraded some shard to RAM-only serving.
  num::Index spill_active = 0;
  num::Index shards = 0;
  /// Requests that waited past their --deadline-us and were answered
  /// with "err timeout" instead of being served.
  std::uint64_t timeouts = 0;
  /// Shards whose write-ahead journal is attached and accepting
  /// appends. Under --durability=journal, journal_active < shards
  /// means the write-error policy degraded some shard to undurable
  /// serving (the degradation ladder in docs/serving.md).
  num::Index journal_active = 0;
  /// The configured --durability mode: "off", "spill" or "journal".
  std::string durability = "off";
  /// Identity of the served model (EnginePool::model_info(); fixed at
  /// pool construction). "random" = no checkpoint loaded.
  std::string model = "random";
  num::Index layers = 1;
  num::Index dh = 0;
  num::Index vocab = 0;
  bool quant = false;
};

/// "stat submitted=... responses=... shed=... now_us=... created=...
/// ttl_resets=... evicted=... spilled=... restored=...
/// restore_corrupt=... spill_active=N/M timeouts=... journal_active=N/M
/// durability=... model=... layers=L dh=N vocab=V quant=off|int8" —
/// one line, fixed key order, so scripts can grep a key without
/// tracking field positions.
std::string format_stats(const StatsSnapshot& s);

}  // namespace zss::serve
