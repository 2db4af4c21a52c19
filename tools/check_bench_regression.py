#!/usr/bin/env python3
"""Counter-regression gate: diff a fresh csxa_bench run against the
committed baseline and fail if terminal round trips, wire bytes, peak
buffered bytes or evaluator events regress on any scenario/variant — the
quantities the fetch planner, the chunk-amortized proofs, the deferral
budget and the verbatim streaming of granted subtrees exist to hold down —
or if a deterministic section (deferred_mode, warm_cache, corpus,
backends, latency_sweep, fault_matrix) drifts or breaks its contract.
The only wall-clock numbers csxa_bench publishes are the probes behind its
two in-bench timing gates (the AES-NI closed_world NC serve rate and
latency_sweep's wall-clock win); they are machine-dependent and never
compared across runs here. Service-level time is perfbench's to measure.

Usage: check_bench_regression.py BASELINE.json FRESH.json [tolerance]

`tolerance` is a fractional slack (default 0.02) absorbing byte-count
jitter from layout-incidental effects; requests and events_in are gated
exactly.
"""

import json
import sys


def fail(msg):
    print(f"REGRESSION: {msg}")
    return 1


def main():
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    baseline = json.load(open(sys.argv[1]))
    fresh = json.load(open(sys.argv[2]))
    tolerance = float(sys.argv[3]) if len(sys.argv) > 3 else 0.02

    rc = 0
    base_scenarios = {s["name"]: s for s in baseline["scenarios"]}
    for scenario in fresh["scenarios"]:
        base = base_scenarios.get(scenario["name"])
        if base is None:
            continue  # New scenario: nothing to regress against.
        base_variants = {v["variant"]: v for v in base["variants"]}
        for variant in scenario["variants"]:
            ref = base_variants.get(variant["variant"])
            if ref is None:
                continue
            where = f'{scenario["name"]}/{variant["variant"]}'
            if not variant.get("view_matches_reference", False):
                rc |= fail(f"{where}: authorized view diverges")
            # Events the rule evaluator takes in: a granted subtree routed
            # back through it shows here before it shows on a wall clock.
            for key in ("requests", "events_in"):
                if variant[key] > ref[key]:
                    rc |= fail(
                        f'{where}: {key} {variant[key]} > '
                        f'baseline {ref[key]}')
            for key in ("wire_bytes", "peak_buffered_bytes"):
                if variant[key] > ref[key] * (1 + tolerance):
                    rc |= fail(
                        f'{where}: {key} {variant[key]} > '
                        f'baseline {ref[key]} (+{tolerance:.0%})')

    # A section the bench stopped early is a failure, not a traceback.
    if "deferred" not in fresh.get("deferred_mode", {}):
        rc |= fail("deferred_mode section missing from fresh run")
    else:
        for strategy in ("deferred", "buffered"):
            ref = baseline["deferred_mode"][strategy]
            cur = fresh["deferred_mode"][strategy]
            for key in ("wire_bytes", "peak_buffered_bytes"):
                if cur[key] > ref[key] * (1 + tolerance):
                    rc |= fail(
                        f'deferred_mode/{strategy}: {key} {cur[key]} > '
                        f'baseline {ref[key]} (+{tolerance:.0%})')

    # Shared-cache economics must not regress: a warm serve that starts
    # re-shipping tree hashes or digests has lost cross-serve sharing, and
    # its wire bytes are gated like every other scenario. The absolute
    # gates depend only on the fresh run, so they apply even against a
    # baseline predating the warm_cache section.
    if "warm" not in fresh.get("warm_cache", {}):
        rc |= fail("warm_cache section missing from fresh run")
    else:
        warm = fresh["warm_cache"]["warm"]
        if warm["proof_hashes_shipped"] != 0 or warm["digest_bytes_shipped"] != 0:
            rc |= fail(
                'warm_cache/warm: integrity material re-shipped '
                f'({warm["proof_hashes_shipped"]} hashes, '
                f'{warm["digest_bytes_shipped"]} digest bytes)')
        if not fresh["warm_cache"].get("warm_under_60_percent", False):
            rc |= fail("warm_cache: warm serve not under 60% of cold wire")
        if "warm_cache" in baseline:
            for serve in ("cold", "warm"):
                ref = baseline["warm_cache"][serve]
                cur = fresh["warm_cache"][serve]
                if cur["wire_bytes"] > ref["wire_bytes"] * (1 + tolerance):
                    rc |= fail(
                        f'warm_cache/{serve}: wire_bytes {cur["wire_bytes"]} '
                        f'> baseline {ref["wire_bytes"]} (+{tolerance:.0%})')

    # Corpus generator (PR 6): every number in the section is a pure
    # function of (family, seed, target_bytes) — platform-independent PRNG,
    # no timing — so any drift against the committed baseline is an
    # unintended generator or evaluator change. Gated exactly, bit-for-bit.
    if "corpus" not in fresh:
        rc |= fail("corpus section missing from fresh run")
    elif "corpus" in baseline:
        same_spec = (
            fresh["corpus"]["target_bytes"] == baseline["corpus"]["target_bytes"]
            and fresh["corpus"]["seed"] == baseline["corpus"]["seed"])
        base_families = {f["family"]: f
                         for f in baseline["corpus"]["families"]}
        for family in fresh["corpus"]["families"] if same_spec else []:
            ref = base_families.get(family["family"])
            if ref is None:
                continue
            where = f'corpus/{family["family"]}'
            for key in ("document_bytes", "records", "max_depth"):
                if family[key] != ref[key]:
                    rc |= fail(
                        f'{where}: {key} {family[key]} != deterministic '
                        f'baseline {ref[key]}')
            base_rules = {r["rules"]: r for r in ref["rule_families"]}
            for rules in family["rule_families"]:
                ref_rules = base_rules.get(rules["rules"])
                if ref_rules is None:
                    continue
                for key in ("rule_count", "view_bytes"):
                    if rules[key] != ref_rules[key]:
                        rc |= fail(
                            f'{where}/{rules["rules"]}: {key} {rules[key]} '
                            f'!= deterministic baseline {ref_rules[key]}')

    # Cipher backends (PR 7): the cross-backend equivalence matrix is the
    # contract that makes the backend a pure performance axis, so it is
    # gated exactly — every backend must have served byte-identical views
    # across the corpus family × variant × rule-family matrix, and every
    # store-level attack must have been rejected on every backend. The
    # matrix must cover the paper-faithful default ("3des") and "aes"; the
    # portable AES path is the csxa_bench_smoke_portable ctest's and CI's
    # portable-crypto job's (the same bench under CSXA_FORCE_PORTABLE=1).
    # Per-backend throughputs are machine-dependent and never gated here
    # (the bench itself gates the AES-NI target).
    if "backends" not in fresh:
        rc |= fail("backends section missing from fresh run")
    else:
        equiv = fresh["backends"].get("equivalence", {})
        for name in ("3des", "aes"):
            if name not in equiv.get("backends", []):
                rc |= fail(f"backends: {name} missing from equivalence matrix")
        if equiv.get("serves", 0) == 0:
            rc |= fail("backends: equivalence matrix ran no serves")
        if not equiv.get("views_identical", False):
            rc |= fail("backends: views diverge across cipher backends")
        if not equiv.get("all_attacks_rejected", False):
            rc |= fail(
                f'backends: only {equiv.get("attacks_rejected", 0)} of '
                f'{equiv.get("attacks_total", 0)} attacks rejected')
        perf = {e["backend"]: e
                for e in fresh["backends"].get("nc_closed_world", [])}
        for name in ("3des", "aes"):
            if name not in perf:
                rc |= fail(f"backends: no {name} closed_world NC serve")

    # Latency sweep (PR 9): the paper's architecture claim priced across a
    # slow link — at every injected RTT point, TCSBR with skip navigation
    # must beat the stream-all (NC) baseline on wire bytes AND wall clock.
    # The win booleans are within-run comparisons on the same machine and
    # the same paced proxy, so they are gated hard; absolute wall-clock
    # values are machine-dependent and never compared across runs. Skip
    # wire bytes are deterministic and gated against baseline.
    if "latency_sweep" not in fresh:
        rc |= fail("latency_sweep section missing from fresh run")
    else:
        points = {p["rtt_ms"]: p for p in fresh["latency_sweep"]["points"]}
        for rtt in (0, 1, 10):
            if rtt not in points:
                rc |= fail(f"latency_sweep: {rtt} ms RTT point missing")
                continue
            point = points[rtt]
            if not point.get("skip_wins_wire", False):
                rc |= fail(
                    f"latency_sweep/{rtt}ms: skip did not beat stream-all "
                    f"on wire bytes")
            if not point.get("skip_wins_wall_clock", False):
                rc |= fail(
                    f"latency_sweep/{rtt}ms: skip did not beat stream-all "
                    f"on wall clock")
            if "latency_sweep" in baseline:
                base_points = {p["rtt_ms"]: p
                               for p in baseline["latency_sweep"]["points"]}
                ref = base_points.get(rtt)
                cur = point["tcsbr_skip"]["wire_bytes"]
                if ref is not None:
                    ref_wire = ref["tcsbr_skip"]["wire_bytes"]
                    if cur > ref_wire * (1 + tolerance):
                        rc |= fail(
                            f"latency_sweep/{rtt}ms: skip wire_bytes {cur} "
                            f"> baseline {ref_wire} (+{tolerance:.0%})")

    # Fault matrix (PR 9): the transport contract, cell by cell. Every
    # injected fault class x cipher backend x cache temperature must have
    # resolved to a typed retry-success or a clean terminal IntegrityError
    # — zero divergent views, zero uncontracted error classes. Retry and
    # reconnect counts are scheduling-dependent and never gated.
    if "fault_matrix" not in fresh:
        rc |= fail("fault_matrix section missing from fresh run")
    else:
        matrix = fresh["fault_matrix"]
        if matrix.get("view_mismatches", 1) != 0:
            rc |= fail(
                f'fault_matrix: {matrix.get("view_mismatches", "unreported")}'
                f' view mismatches')
        if matrix.get("contract_violations", 1) != 0:
            rc |= fail(
                f'fault_matrix: '
                f'{matrix.get("contract_violations", "unreported")} outcomes '
                f'outside the transport contract')
        cells = matrix.get("cells", [])
        seen = {(c["fault"], c["backend"], c["cache"]) for c in cells}
        for fault in ("drop_after_bytes", "stall", "close_mid_response",
                      "duplicate_response", "truncate_frame", "corrupt_byte"):
            for backend in ("3des", "aes"):
                for cache in ("cold", "warm"):
                    if (fault, backend, cache) not in seen:
                        rc |= fail(
                            f"fault_matrix: cell {fault}/{backend}/{cache} "
                            f"missing")
        for cell in cells:
            if cell["outcome"] not in ("retried_success", "integrity_error"):
                rc |= fail(
                    f'fault_matrix/{cell["fault"]}/{cell["backend"]}/'
                    f'{cell["cache"]}: outcome {cell["outcome"]} outside '
                    f'the contract')

    if not fresh.get("checks_passed", False):
        rc |= fail("bench-internal checks failed")
    if rc == 0:
        print("bench within baseline: no regression in requests, wire "
              "bytes, peak buffered bytes, evaluator events or the "
              "deterministic sections")
    return rc


if __name__ == "__main__":
    sys.exit(main())
