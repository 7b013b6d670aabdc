#!/usr/bin/env python3
"""Gate a fresh BENCH_*.json against the checked-in reference.

Usage: check_bench_regression.py FRESH_JSON [REFERENCE_JSON]

Dispatches on the artifact's "bench" field:

* bench == "sparse_inference" (reference defaults to
  BENCH_sparse_inference.json):
    - Hard gates (exit 1): every row must be bit_exact (the exactness
      contract is binary); the batched skip path must beat the dense
      baseline where the per-lane kernel exists to win —
      wall_speedup >= 1.0 at batch 8 for every sparsity >= 0.5 (the
      regression that motivated the per-lane path was 0.87x there).
    - Soft warnings: any (sparsity, batch) cell whose wall_speedup
      dropped more than WARN_FRACTION below the reference.
    - The optional "int8" block (the quantized datapath) gets the same
      treatment: every int8 row must be bit_exact — here that means
      bit-identical to the serial integer reference twin, so a false is
      an arithmetic bug, never noise — and if the reference recorded an
      int8 block the fresh artifact must have one too (the quantized
      path silently disappearing from the bench is a regression). Soft
      warnings on int8 wall_speedup drift per cell and on the dense
      int8 GMAC/s throughput (and its ratio over fp32) dropping more
      than WARN_FRACTION below the reference recording.

* bench == "serving" (reference defaults to BENCH_serving.json):
    - Hard gates (exit 1): every tiering row must have
      restore_bit_exact=true and restore_corrupt=0 — a spill/restore
      round trip that loses bits is a correctness bug, not a perf
      regression (docs/store.md); the tiering block must be present.
      Every frontend row (the 1000-connection epoll-mux sweep) must
      have ok=true, misrouted=0 and lost=0 — a cross-connection
      delivery or an unanswered request through the front end is a
      routing bug, never noise — and the frontend block itself must
      be present with at least one row at >= 1000 connections.
      The stacked block (L-layer models at several shard counts) must
      be present and non-empty, and every row must have bit_exact=true
      — a resharded run whose digests differ from the 1-shard
      reference is a determinism bug, never noise.
      The recovery block (write-ahead journal: kill the pool halfway,
      restart, resume) must be present and non-empty, and every row
      must have recovered_bit_exact=true — a resumed run that does not
      land bit-identical to the uninterrupted oracle is a durability
      bug, never noise.
    - Soft warnings: cold-restore p50 latency more than WARN_FRACTION
      *slower* than the reference recording, warm-rate collapse
      (the tier silently degrading to RAM-only would show up here),
      frontend rps / p50 drifting more than WARN_FRACTION past
      the reference at the same shard count, and the journal-on
      throughput ratio (journal_rps / baseline_rps — the group-commit
      tax) dropping more than WARN_FRACTION below the reference at the
      same sync mode.

Wall-clock on shared CI runners is noisy, so time-based checks
annotate rather than fail; the references at the repo root are the
dev-machine recordings (docs/benchmarks.md).

Run by the native-bench CI job after each bench, and usable locally:
  ./tools/check_bench_regression.py build/BENCH_sparse_inference.json
  ./tools/check_bench_regression.py build/BENCH_serving.json
"""

import json
import sys

WARN_FRACTION = 0.20
HARD_GATE_BATCH = 8
HARD_GATE_MIN_SPARSITY = 0.5

DEFAULT_REFERENCE = {
    "sparse_inference": "BENCH_sparse_inference.json",
    "serving": "BENCH_serving.json",
}


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}")
        sys.exit(2)
    if data.get("bench") not in DEFAULT_REFERENCE:
        print(f"error: {path} is not a recognized BENCH_*.json artifact")
        sys.exit(2)
    return data


def cells(data):
    return {(r["sparsity"], r["batch"]): r for r in data["results"]}


def check_sparse_inference(fresh, ref, failures, warnings):
    for (sparsity, batch), row in sorted(cells(fresh).items()):
        if not row.get("bit_exact", False):
            failures.append(
                f"bit_exact=false at sparsity {sparsity} batch {batch}"
            )
        if batch == HARD_GATE_BATCH and sparsity >= HARD_GATE_MIN_SPARSITY:
            if row["wall_speedup"] < 1.0:
                failures.append(
                    f"wall_speedup {row['wall_speedup']:.3f} < 1.0 at "
                    f"sparsity {sparsity} batch {batch} — the batched skip "
                    f"path lost to the dense baseline again"
                )

    ref_cells = cells(ref)
    for key, row in sorted(cells(fresh).items()):
        ref_row = ref_cells.get(key)
        if ref_row is None:
            warnings.append(f"cell {key} missing from reference")
            continue
        floor = ref_row["wall_speedup"] * (1.0 - WARN_FRACTION)
        if row["wall_speedup"] < floor:
            warnings.append(
                f"wall_speedup at sparsity {key[0]} batch {key[1]}: "
                f"{row['wall_speedup']:.3f} vs reference "
                f"{ref_row['wall_speedup']:.3f} "
                f"(-{(1 - row['wall_speedup'] / ref_row['wall_speedup']) * 100:.0f}%)"
            )
    return len(cells(fresh)) + check_int8(fresh, ref, failures, warnings)


def check_int8(fresh, ref, failures, warnings):
    """The quantized block of a sparse_inference artifact (if any)."""
    fresh_int8 = fresh.get("int8")
    ref_int8 = ref.get("int8")
    if fresh_int8 is None:
        if ref_int8 is not None:
            failures.append(
                "int8 block missing — the reference records the quantized "
                "datapath but the fresh bench did not run it"
            )
        return 0

    for (sparsity, batch), row in sorted(cells(fresh_int8).items()):
        if not row.get("bit_exact", False):
            failures.append(
                f"int8 bit_exact=false at sparsity {sparsity} batch {batch} "
                f"— the quantized path diverged from its integer reference "
                f"twin; this is an arithmetic bug, not noise"
            )

    if ref_int8 is None:
        warnings.append("reference has no int8 block; skipping int8 drift")
        return len(cells(fresh_int8))

    ref_cells = cells(ref_int8)
    for key, row in sorted(cells(fresh_int8).items()):
        ref_row = ref_cells.get(key)
        if ref_row is None:
            warnings.append(f"int8 cell {key} missing from reference")
            continue
        floor = ref_row["wall_speedup"] * (1.0 - WARN_FRACTION)
        if row["wall_speedup"] < floor:
            warnings.append(
                f"int8 wall_speedup at sparsity {key[0]} batch {key[1]}: "
                f"{row['wall_speedup']:.3f} vs reference "
                f"{ref_row['wall_speedup']:.3f} "
                f"(-{(1 - row['wall_speedup'] / ref_row['wall_speedup']) * 100:.0f}%)"
            )
    for field in ("dense_int8_gmacs", "dense_int8_vs_fp32"):
        fresh_v = fresh_int8.get(field)
        ref_v = ref_int8.get(field)
        if fresh_v is None or ref_v is None:
            continue
        if fresh_v < ref_v * (1.0 - WARN_FRACTION):
            warnings.append(
                f"int8 {field}: {fresh_v:.3f} vs reference {ref_v:.3f} "
                f"(-{(1 - fresh_v / ref_v) * 100:.0f}%) — the quantized "
                f"dense throughput edge is eroding"
            )
    return len(cells(fresh_int8))


def check_serving(fresh, ref, failures, warnings):
    tiering = fresh.get("tiering", [])
    if not tiering:
        failures.append(
            "tiering block missing or empty — the spill tier was not "
            "exercised (bench/bench_serving.cc writes one row per "
            "encoding flavour)"
        )
    ref_tiering = {r.get("encoded"): r for r in ref.get("tiering", [])}
    for row in tiering:
        flavour = "encoded" if row.get("encoded") else "dense"
        if not row.get("restore_bit_exact", False):
            failures.append(
                f"restore_bit_exact=false ({flavour}) — a spill/restore "
                f"round trip lost bits; the tier's core invariant is broken"
            )
        if row.get("restore_corrupt", 0) != 0:
            failures.append(
                f"restore_corrupt={row['restore_corrupt']} ({flavour}) on a "
                f"clean run — records corrupted without injected faults"
            )
        ref_row = ref_tiering.get(row.get("encoded"))
        if ref_row is None:
            warnings.append(f"tiering flavour '{flavour}' missing from reference")
            continue
        ceiling = ref_row["cold_restore_p50_us"] * (1.0 + WARN_FRACTION)
        if row["cold_restore_p50_us"] > ceiling:
            warnings.append(
                f"cold_restore_p50_us ({flavour}): "
                f"{row['cold_restore_p50_us']:.2f} vs reference "
                f"{ref_row['cold_restore_p50_us']:.2f} "
                f"(+{(row['cold_restore_p50_us'] / ref_row['cold_restore_p50_us'] - 1) * 100:.0f}%)"
            )
        floor = ref_row["warm_rate"] * (1.0 - WARN_FRACTION)
        if row["warm_rate"] < floor:
            warnings.append(
                f"warm_rate ({flavour}): {row['warm_rate']:.3f} vs reference "
                f"{ref_row['warm_rate']:.3f} — restores stopped happening; "
                f"is the tier degrading to RAM-only?"
            )
    rows = len(tiering)

    stacked = fresh.get("stacked", [])
    if not stacked:
        failures.append(
            "stacked block missing or empty — the L-layer serving path "
            "was not exercised (bench/bench_serving.cc writes one row per "
            "layers x shards)"
        )
    ref_stacked = {
        (r.get("layers"), r.get("shards")): r for r in ref.get("stacked", [])
    }
    for row in stacked:
        key = (row.get("layers"), row.get("shards"))
        label = f"layers={key[0]} shards={key[1]}"
        if not row.get("bit_exact", False):
            failures.append(
                f"stacked bit_exact=false ({label}) — the run's digests "
                f"diverged from the 1-shard reference; resharding broke "
                f"determinism"
            )
        ref_row = ref_stacked.get(key)
        if ref_row is None:
            warnings.append(f"stacked row ({label}) missing from reference")
            continue
        floor = ref_row["wall_rps"] * (1.0 - WARN_FRACTION)
        if row["wall_rps"] < floor:
            warnings.append(
                f"stacked wall_rps ({label}): {row['wall_rps']:.1f} vs "
                f"reference {ref_row['wall_rps']:.1f} "
                f"(-{(1 - row['wall_rps'] / ref_row['wall_rps']) * 100:.0f}%)"
            )
    rows += len(stacked)

    recovery = fresh.get("recovery", [])
    if not recovery:
        failures.append(
            "recovery block missing or empty — the write-ahead journal's "
            "kill/restart/resume path was not exercised "
            "(bench/bench_serving.cc writes one row per journal-sync mode)"
        )
    ref_recovery = {r.get("journal_sync"): r for r in ref.get("recovery", [])}
    for row in recovery:
        label = f"journal_sync={row.get('journal_sync')}"
        if not row.get("recovered_bit_exact", False):
            failures.append(
                f"recovered_bit_exact=false ({label}) — after a mid-run "
                f"kill, restart + resume did not reproduce the "
                f"uninterrupted run's digests; committed work was lost or "
                f"mutated (docs/serving.md 'Crash recovery')"
            )
        if row.get("recovered_sessions", 0) == 0:
            failures.append(
                f"recovered_sessions=0 ({label}) — the restart recovered "
                f"nothing; the journal was never written or never replayed"
            )
        ref_row = ref_recovery.get(row.get("journal_sync"))
        if ref_row is None:
            warnings.append(f"recovery row ({label}) missing from reference")
            continue
        floor = ref_row["journal_ratio"] * (1.0 - WARN_FRACTION)
        if row["journal_ratio"] < floor:
            warnings.append(
                f"journal_ratio ({label}): {row['journal_ratio']:.3f} vs "
                f"reference {ref_row['journal_ratio']:.3f} "
                f"(-{(1 - row['journal_ratio'] / ref_row['journal_ratio']) * 100:.0f}%)"
                f" — the journal's group-commit tax is growing"
            )
    rows += len(recovery)

    frontend = fresh.get("frontend", [])
    if not frontend:
        failures.append(
            "frontend block missing or empty — the epoll connection front "
            "end was not exercised (bench/bench_serving.cc drives 1000+ "
            "concurrent sockets through it)"
        )
    elif not any(r.get("connections", 0) >= 1000 for r in frontend):
        failures.append(
            "no frontend row reaches 1000 concurrent connections — the "
            "bench ran below the acceptance floor"
        )
    ref_frontend = {r.get("shards"): r for r in ref.get("frontend", [])}
    for row in frontend:
        label = f"shards={row.get('shards')} conns={row.get('connections')}"
        if not row.get("ok", False):
            failures.append(
                f"frontend ok=false ({label}) — setup or connect failed; "
                f"the sweep never ran"
            )
        if row.get("misrouted", 0) != 0:
            failures.append(
                f"frontend misrouted={row['misrouted']} ({label}) — a "
                f"response reached a connection that never asked for it; "
                f"connection-id routing is broken"
            )
        if row.get("lost", 0) != 0:
            failures.append(
                f"frontend lost={row['lost']} ({label}) — requests went "
                f"unanswered before the deadline"
            )
        ref_row = ref_frontend.get(row.get("shards"))
        if ref_row is None:
            warnings.append(f"frontend row ({label}) missing from reference")
            continue
        floor = ref_row["rps"] * (1.0 - WARN_FRACTION)
        if row["rps"] < floor:
            warnings.append(
                f"frontend rps ({label}): {row['rps']:.1f} vs reference "
                f"{ref_row['rps']:.1f} "
                f"(-{(1 - row['rps'] / ref_row['rps']) * 100:.0f}%)"
            )
        ceiling = ref_row["p50_us"] * (1.0 + WARN_FRACTION)
        if row["p50_us"] > ceiling:
            warnings.append(
                f"frontend p50_us ({label}): {row['p50_us']:.2f} vs "
                f"reference {ref_row['p50_us']:.2f} "
                f"(+{(row['p50_us'] / ref_row['p50_us'] - 1) * 100:.0f}%)"
            )
    return rows + len(frontend)


def main(argv):
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__)
        return 2
    fresh_path = argv[1]
    fresh = load(fresh_path)
    kind = fresh["bench"]
    ref_path = argv[2] if len(argv) > 2 else DEFAULT_REFERENCE[kind]
    ref = load(ref_path)
    if ref.get("bench") != kind:
        print(
            f"error: bench kind mismatch: {fresh_path} is '{kind}' but "
            f"{ref_path} is '{ref.get('bench')}'"
        )
        return 2

    failures = []
    warnings = []
    if fresh.get("kernel_backend") != ref.get("kernel_backend"):
        print(
            f"note: backends differ (fresh={fresh.get('kernel_backend')}, "
            f"reference={ref.get('kernel_backend')}); speedup comparison "
            f"is still meaningful (both are ratios on one machine) but "
            f"expect larger drift"
        )
    if kind == "sparse_inference":
        checked = check_sparse_inference(fresh, ref, failures, warnings)
        unit = "cells"
    else:
        checked = check_serving(fresh, ref, failures, warnings)
        unit = "tiering+stacked+recovery+frontend rows"

    for w in warnings:
        print(f"warning: {w}")
    for f_ in failures:
        print(f"FAIL: {f_}")
    if failures:
        return 1
    print(
        f"bench regression check passed ({kind}): {checked} {unit}, "
        f"{len(warnings)} warning(s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
