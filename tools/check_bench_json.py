#!/usr/bin/env python3
"""Validate bpsim's machine-readable run records.

Five schemas, selected with --schema (default: runner):

  runner      BENCH_runner.json timing files written by
              writeRunnerJson (src/core/runner.cc)
  journal     run-journal JSONL event streams written by
              obs::RunJournal::writeJsonl (one event object per line)
  metrics     aggregated metrics summaries written by
              obs::RunJournal::writeMetrics
  checkpoint  sweep-checkpoint JSONL files written by
              SweepCheckpoint (src/core/checkpoint.cc), optionally
              led by a bpsim-checkpoint-header-v1 shard stamp
  merge       bpsim-merge-v1 summaries written by `bpsim_cli merge`

The validator is wired into ctest (and CI smoke runs), so a malformed
emitter fails tier-1 instead of silently corrupting the record.

--warm-cache (runner schema only) additionally asserts the run was
served entirely from a warm artifact cache: zero replay and profile
cache misses, zero corrupt artifacts, and a non-empty mmap footprint.

Usage: check_bench_json.py
       [--schema runner|journal|metrics|checkpoint|merge]
       [--warm-cache] FILE...
Exits non-zero with a message on the first problem found.
"""

import json
import math
import re
import sys

TOP_LEVEL_REQUIRED = {
    "bench": str,
    "threads": int,
    "cells": list,
    "materialize_seconds": (int, float),
    "profile_seconds": (int, float),
    "profile_cache_hits": int,
    "profile_cache_misses": int,
    "kernel_cells": int,
    "simd_cells": int,
    "dispatch": str,
    "simd_width": int,
    "fused_groups": int,
    "failed_cells": int,
    "restored_cells": int,
    "run_seconds": (int, float),
    "wall_seconds": (int, float),
    "total_branches": int,
    "actual_branches": int,
    "kernel_branches_per_second": (int, float),
    "branches_per_second": (int, float),
    "replay_buffer_bytes": int,
    "cache_replay_hits": int,
    "cache_replay_misses": int,
    "cache_profile_hits": int,
    "cache_profile_misses": int,
    "cache_corrupt": int,
    "mmap_bytes": int,
    "shard_index": int,
    "shard_count": int,
    "shard_cells": int,
    "shard_skipped_cells": int,
    "serial_estimate_seconds": (int, float),
    "speedup_vs_serial_estimate": (int, float),
}

CELL_REQUIRED = {
    "label": str,
    "program": str,
    "misp_ki": (int, float),
    "hints": int,
    "branches": int,
    "wall_seconds": (int, float),
    "branches_per_second": (int, float),
    "kernel": bool,
    "simd": bool,
    "profile_cached": bool,
}

# Runtime dispatch levels (bpsim::SimdLevel wire names).
DISPATCH_LEVELS = {"scalar", "avx2", "neon"}

# Registered predictor names (the anchor list in
# src/predictor/registry.cc) and static-scheme wire names. Canonical
# cell labels are "program/predictor:bytes/scheme"; a label of that
# shape must name a registered predictor and a known scheme.
# Free-form labels (custom addCell strings) pass through untouched.
KNOWN_PREDICTORS = {
    "bimodal", "ghist", "gshare", "bimode", "2bcgskew",
    "agree", "tournament", "gselect", "yags", "ideal",
    "tage", "perceptron",
}

KNOWN_SCHEMES = {
    "none", "static_95", "static_acc", "static_fac", "static_alias",
}

CANONICAL_LABEL_RE = re.compile(r"^[^/]+/([^/:]+):(\d+)/([^/]+)$")


def check_cell_label(path, label, where):
    match = CANONICAL_LABEL_RE.match(label)
    if match is None:
        return
    predictor, _, scheme = match.groups()
    if predictor not in KNOWN_PREDICTORS:
        fail(path, f"{where}: label '{label}' names unknown "
                   f"predictor '{predictor}'")
    if scheme not in KNOWN_SCHEMES:
        fail(path, f"{where}: label '{label}' names unknown "
                   f"scheme '{scheme}'")

# The error-code taxonomy (bpsim::ErrorCode wire names).
ERROR_CODES = {
    "config_invalid",
    "io_failure",
    "resource_exhausted",
    "cell_failed",
    "internal",
    "cancelled",
    "deadline_exceeded",
}

CELL_ERROR_OBJECT_REQUIRED = {
    "code": str,
    "message": str,
    "attempts": int,
}

# The journal event taxonomy (obs::EventKind wire names).
EVENT_KINDS = {
    "run_begin",
    "phase_begin",
    "phase_end",
    "materialize",
    "profile_phase",
    "fused_group",
    "scenario_cell",
    "cell_begin",
    "cell_end",
    "cell_error",
    "cache",
    "cache_corrupt",
    "run_end",
    "request_begin",
    "request_cell",
    "request_end",
    "request_rejected",
    "service_state",
}

EVENT_REQUIRED = {
    "seq": int,
    "t": (int, float),
    "thread": int,
    "event": str,
    "label": str,
}

CELL_END_REQUIRED = {
    "seconds": (int, float),
    "branches": int,
    "misp_ki": (int, float),
    "hints": int,
    "collisions": int,
    "constructive": int,
    "destructive": int,
    "neutral": int,
}

CELL_ERROR_REQUIRED = {
    "cell": int,
    "code": str,
    "message": str,
    "attempts": int,
}

# One fused_group event per fused pass (profile or cells phase);
# 'cells' is the comma-joined member list, so its element count must
# equal 'members'.
FUSED_GROUP_REQUIRED = {
    "phase": str,
    "members": int,
    "cells": str,
    "seconds": (int, float),
    "branches": int,
}

FUSED_GROUP_PHASES = {"profile", "cells"}

# Cells-phase groups additionally carry per-member stat breakdowns as
# comma-joined lists aligned with 'cells'.
FUSED_CELLS_PHASE_REQUIRED = {
    "branches_per_cell": str,
    "mispredictions_per_cell": str,
}

# One scenario_cell event per multi-context cell: the cross- vs
# self-context split of its collision classification. The full NxN
# victim x aggressor matrix lives in the runner JSON ('interference'),
# not the journal.
SCENARIO_CELL_EVENT_REQUIRED = {
    "cell": int,
    "contexts": int,
    "collisions_cross": int,
    "destructive_cross": int,
    "collisions_self": int,
    "destructive_self": int,
}

# Per-context stat block of a scenario cell in the runner JSON.
SCENARIO_CONTEXT_STAT_REQUIRED = {
    "context": int,
    "branches": int,
    "instructions": int,
    "mispredictions": int,
    "misp_ki": (int, float),
    "static_predicted": int,
    "collisions": int,
}

# One victim x aggressor pair of a scenario cell's interference
# matrix in the runner JSON (row-major: victim outer, aggressor
# inner).
SCENARIO_INTERFERENCE_REQUIRED = {
    "victim": int,
    "aggressor": int,
    "collisions": int,
    "constructive": int,
    "destructive": int,
}

METRICS_REQUIRED = {
    "schema": str,
    "run": str,
    "total_events": int,
    "events_by_kind": dict,
    "events_by_thread": dict,
    "cells_begun": int,
    "cells_ended": int,
    "cells_failed": int,
    "cells_restored": int,
    "phase_begins": int,
    "phase_ends": int,
    "phases_balanced": bool,
    "materialize_seconds": (int, float),
    "profile_seconds": (int, float),
    "cell_seconds": (int, float),
    "wall_seconds": (int, float),
    "kernel_cells": int,
    "simd_cells": int,
    "dispatch": str,
    "simd_width": int,
    "cached_cells": int,
    "fused_groups": int,
    "fused_members": int,
    "branches": int,
    "collisions": int,
    "constructive": int,
    "destructive": int,
    "neutral": int,
    "counters": dict,
    "timers": dict,
}

METRICS_SCHEMA_ID = "bpsim-metrics-v1"

CHECKPOINT_SCHEMA_ID = "bpsim-checkpoint-v1"

CHECKPOINT_HEADER_SCHEMA_ID = "bpsim-checkpoint-header-v1"

CHECKPOINT_HEADER_REQUIRED = {
    "schema": str,
    "shard_index": int,
    "shard_count": int,
    "matrix_cells": int,
    "shard_cells": int,
}

CHECKPOINT_REQUIRED = {
    "schema": str,
    "fingerprint": str,
    "label": str,
    "branches": int,
    "instructions": int,
    "mispredictions": int,
    "static_predicted": int,
    "static_mispredictions": int,
    "lookups": int,
    "collisions": int,
    "constructive": int,
    "destructive": int,
    "hints": int,
    "simulated_branches": int,
    "kernel": bool,
    "simd": bool,
    "phase_branches": int,
}


def fail(path, message):
    print(f"{path}: {message}", file=sys.stderr)
    sys.exit(1)


def check_fields(path, obj, spec, where):
    for key, expected in spec.items():
        if key not in obj:
            fail(path, f"{where}: missing key '{key}'")
        value = obj[key]
        if expected is bool:
            if not isinstance(value, bool):
                fail(path, f"{where}: key '{key}' has type "
                           f"{type(value).__name__}, expected bool")
            continue
        if isinstance(value, bool) or not isinstance(value, expected):
            fail(path, f"{where}: key '{key}' has type "
                       f"{type(value).__name__}, expected "
                       f"{expected}")
        if isinstance(value, (int, float)):
            if isinstance(value, float) and not math.isfinite(value):
                fail(path, f"{where}: key '{key}' is not finite")
            if value < 0:
                fail(path, f"{where}: key '{key}' is negative")


def check_scenario_cell(path, cell, where):
    """Validate the scenario payload of one runner-JSON cell."""
    if cell["scenario"] is not True:
        fail(path, f"{where}: 'scenario', when present, must be true")
    check_fields(path, cell, {"contexts": int,
                              "context_stats": list}, where)
    contexts = cell["contexts"]
    if contexts < 1:
        fail(path, f"{where}: contexts {contexts} < 1")
    stats = cell["context_stats"]
    if len(stats) != contexts:
        fail(path, f"{where}: context_stats has {len(stats)} "
                   f"entries, expected {contexts}")
    for index, entry in enumerate(stats):
        entry_where = f"{where}.context_stats[{index}]"
        if not isinstance(entry, dict):
            fail(path, f"{entry_where}: must be an object")
        check_fields(path, entry, SCENARIO_CONTEXT_STAT_REQUIRED,
                     entry_where)
        if entry["context"] != index:
            fail(path, f"{entry_where}: context {entry['context']} "
                       f"!= position {index}")
        if entry["mispredictions"] > entry["branches"]:
            fail(path, f"{entry_where}: mispredictions > branches")
        if entry["branches"] > entry["instructions"]:
            fail(path, f"{entry_where}: branches > instructions")
        if entry["instructions"] > 0:
            computed = 1000.0 * entry["mispredictions"] / \
                entry["instructions"]
            if abs(computed - entry["misp_ki"]) > 1e-3:
                fail(path, f"{entry_where}: misp_ki "
                           f"{entry['misp_ki']} != computed "
                           f"{computed:.6f}")
    if "interference" in cell:
        matrix = cell["interference"]
        if not isinstance(matrix, list):
            fail(path, f"{where}: 'interference' must be a list")
        if len(matrix) != contexts * contexts:
            fail(path, f"{where}: interference has {len(matrix)} "
                       f"pairs, expected {contexts * contexts}")
        for index, pair in enumerate(matrix):
            pair_where = f"{where}.interference[{index}]"
            if not isinstance(pair, dict):
                fail(path, f"{pair_where}: must be an object")
            check_fields(path, pair, SCENARIO_INTERFERENCE_REQUIRED,
                         pair_where)
            if pair["victim"] != index // contexts or \
                    pair["aggressor"] != index % contexts:
                fail(path, f"{pair_where}: expected victim "
                           f"{index // contexts} / aggressor "
                           f"{index % contexts}, got "
                           f"{pair['victim']}/{pair['aggressor']}")
            classified = pair["constructive"] + pair["destructive"]
            if classified > pair["collisions"]:
                fail(path, f"{pair_where}: constructive + "
                           f"destructive {classified} > collisions "
                           f"{pair['collisions']}")


def check_runner_file(path, warm_cache=False):
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        fail(path, f"cannot read: {error}")
    except json.JSONDecodeError as error:
        fail(path, f"not valid JSON: {error}")

    if not isinstance(data, dict):
        fail(path, "top level must be an object")
    check_fields(path, data, TOP_LEVEL_REQUIRED, "top level")

    if not data["cells"]:
        fail(path, "cells array is empty")
    failed_cells = 0
    restored_cells = 0
    skipped_cells = 0
    for index, cell in enumerate(data["cells"]):
        where = f"cells[{index}]"
        if not isinstance(cell, dict):
            fail(path, f"{where}: must be an object")
        check_fields(path, cell, CELL_REQUIRED, where)
        check_cell_label(path, cell["label"], where)
        if "scenario" in cell:
            check_scenario_cell(path, cell, where)
        if "restored" in cell:
            if cell["restored"] is not True:
                fail(path, f"{where}: 'restored', when present, must "
                           f"be true")
            restored_cells += 1
        if "shard_skipped" in cell:
            if cell["shard_skipped"] is not True:
                fail(path, f"{where}: 'shard_skipped', when present, "
                           f"must be true")
            if "restored" in cell or "error" in cell:
                fail(path, f"{where}: a shard-skipped cell cannot "
                           f"also be restored or failed")
            skipped_cells += 1
        if "error" in cell:
            error = cell["error"]
            if not isinstance(error, dict):
                fail(path, f"{where}: 'error' must be an object")
            check_fields(path, error, CELL_ERROR_OBJECT_REQUIRED,
                         f"{where}.error")
            if error["code"] not in ERROR_CODES:
                fail(path, f"{where}.error: unknown code "
                           f"'{error['code']}'")
            failed_cells += 1

    if failed_cells != data["failed_cells"]:
        fail(path, f"failed_cells {data['failed_cells']} != "
                   f"count of cells carrying an error {failed_cells}")
    if restored_cells != data["restored_cells"]:
        fail(path, f"restored_cells {data['restored_cells']} != "
                   f"count of restored cells {restored_cells}")

    if "baseline_seconds" in data and "speedup_vs_baseline" not in data:
        fail(path, "baseline_seconds without speedup_vs_baseline")

    # Shard accounting: the declared slice must be well formed and
    # every cell is either owned by this shard or marked skipped.
    if not 1 <= data["shard_index"] <= data["shard_count"]:
        fail(path, f"shard_index {data['shard_index']} outside "
                   f"1..shard_count {data['shard_count']}")
    if skipped_cells != data["shard_skipped_cells"]:
        fail(path, f"shard_skipped_cells "
                   f"{data['shard_skipped_cells']} != count of "
                   f"shard_skipped cells {skipped_cells}")
    if data["shard_cells"] + data["shard_skipped_cells"] != \
            len(data["cells"]):
        fail(path, f"shard_cells {data['shard_cells']} + "
                   f"shard_skipped_cells "
                   f"{data['shard_skipped_cells']} != "
                   f"{len(data['cells'])} cells")
    if data["shard_count"] == 1 and data["shard_skipped_cells"] != 0:
        fail(path, f"unsharded run skipped "
                   f"{data['shard_skipped_cells']} cells")

    if warm_cache:
        for key in ("cache_replay_misses", "cache_profile_misses",
                    "cache_corrupt"):
            if data[key] != 0:
                fail(path, f"--warm-cache: {key} is {data[key]}, "
                           f"expected 0")
        if data["cache_replay_hits"] == 0:
            fail(path, "--warm-cache: cache_replay_hits is 0")
        if data["mmap_bytes"] == 0:
            fail(path, "--warm-cache: mmap_bytes is 0")

    total = sum(cell["branches"] for cell in data["cells"]
                if "error" not in cell)
    if total != data["total_branches"]:
        fail(path, f"total_branches {data['total_branches']} != "
                   f"sum of successful cell branches {total}")

    # The profile cache removes work, never adds it: actual_branches
    # counts each shared profiling phase once, total_branches once per
    # consuming cell. With failed cells the inequality can flip (a
    # phase may have run for a cell that then failed), so these two
    # checks only hold on a fully successful run.
    if failed_cells == 0:
        if data["actual_branches"] > data["total_branches"]:
            fail(path, f"actual_branches {data['actual_branches']} > "
                       f"total_branches {data['total_branches']}")
        if data["profile_cache_hits"] > 0 and \
                data["actual_branches"] == data["total_branches"]:
            fail(path, "profile cache hits reported but "
                       "actual_branches == total_branches (no work "
                       "was shared)")

    kernel_cells = sum(1 for cell in data["cells"] if cell["kernel"])
    if kernel_cells != data["kernel_cells"]:
        fail(path, f"kernel_cells {data['kernel_cells']} != "
                   f"count of kernel cells {kernel_cells}")

    # Batch-kernel execution is a refinement of the devirtualized
    # kernel path: a cell can only batch if it took the kernels.
    if data["dispatch"] not in DISPATCH_LEVELS:
        fail(path, f"unknown dispatch level '{data['dispatch']}'")
    simd_cells = sum(1 for cell in data["cells"] if cell["simd"])
    if simd_cells != data["simd_cells"]:
        fail(path, f"simd_cells {data['simd_cells']} != "
                   f"count of simd cells {simd_cells}")
    for index, cell in enumerate(data["cells"]):
        if cell["simd"] and not cell["kernel"]:
            fail(path, f"cells[{index}]: simd without kernel")
    if data["simd_width"] < 1:
        fail(path, f"simd_width {data['simd_width']} < 1")
    if data["dispatch"] == "scalar" and data["simd_width"] != 1:
        fail(path, f"dispatch '{data['dispatch']}' with simd_width "
                   f"{data['simd_width']} (expected 1)")

    # Every non-failed cell in the cache plan reports profile_cached;
    # failed consumers drop out of the count, so with failures the
    # plan size only bounds it.
    cached_cells = sum(
        1 for cell in data["cells"] if cell["profile_cached"])
    cache_accesses = data["profile_cache_hits"] + \
        data["profile_cache_misses"]
    if failed_cells == 0 and cached_cells != cache_accesses:
        fail(path, f"profile_cache_hits + profile_cache_misses "
                   f"{cache_accesses} != count of profile_cached "
                   f"cells {cached_cells}")
    if cached_cells > cache_accesses:
        fail(path, f"{cached_cells} profile_cached cells > "
                   f"profile_cache_hits + profile_cache_misses "
                   f"{cache_accesses}")

    print(f"{path}: ok ({len(data['cells'])} cells, "
          f"{data['threads']} threads, "
          f"{data['wall_seconds']:.2f}s wall, "
          f"{data['profile_cache_hits']} profile-cache hits, "
          f"{data['kernel_cells']} kernel cells, "
          f"{data['simd_cells']} simd cells via "
          f"{data['dispatch']}, "
          f"{data['failed_cells']} failed, "
          f"{data['restored_cells']} restored)")


def check_collision_split(path, obj, where):
    classified = obj["constructive"] + obj["destructive"] + \
        obj["neutral"]
    if classified != obj["collisions"]:
        fail(path, f"{where}: constructive + destructive + neutral "
                   f"{classified} != collisions {obj['collisions']}")


def check_journal_file(path):
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as error:
        fail(path, f"cannot read: {error}")

    events = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            fail(path, f"line {number}: blank line in JSONL stream")
        try:
            event = json.loads(line)
        except json.JSONDecodeError as error:
            fail(path, f"line {number}: not valid JSON: {error}")
        if not isinstance(event, dict):
            fail(path, f"line {number}: event must be an object")
        check_fields(path, event, EVENT_REQUIRED, f"line {number}")
        if event["event"] not in EVENT_KINDS:
            fail(path, f"line {number}: unknown event kind "
                       f"'{event['event']}'")
        events.append(event)

    if not events:
        fail(path, "journal is empty")

    # Sequence numbers are assigned under the journal lock: strictly
    # increasing from zero, timestamps monotonic.
    for index, event in enumerate(events):
        where = f"line {index + 1}"
        if event["seq"] != index:
            fail(path, f"{where}: seq {event['seq']} != line "
                       f"position {index}")
        if index > 0 and event["t"] < events[index - 1]["t"]:
            fail(path, f"{where}: timestamp {event['t']} goes "
                       f"backwards")

    if events[0]["event"] != "run_begin":
        fail(path, "first event must be run_begin")
    # Dispatch resolution is recorded once, up front. Both fields are
    # optional (journals predating the batch kernels lack them) but
    # must arrive as a consistent pair when present.
    run_begin = events[0]
    if "dispatch" in run_begin:
        if run_begin["dispatch"] not in DISPATCH_LEVELS:
            fail(path, f"run_begin: unknown dispatch level "
                       f"'{run_begin['dispatch']}'")
        check_fields(path, run_begin, {"simd_width": int},
                     "run_begin")
        if run_begin["dispatch"] == "scalar" and \
                run_begin["simd_width"] != 1:
            fail(path, f"run_begin: dispatch "
                       f"'{run_begin['dispatch']}' with simd_width "
                       f"{run_begin['simd_width']} (expected 1)")
    elif "simd_width" in run_begin:
        fail(path, "run_begin: simd_width without dispatch")
    if events[-1]["event"] != "run_end":
        fail(path, "last event must be run_end")
    for marker in ("run_begin", "run_end"):
        count = sum(1 for e in events if e["event"] == marker)
        if count != 1:
            fail(path, f"expected exactly one {marker}, found {count}")

    # Phases balance per label and never close more than they opened.
    open_phases = {}
    for index, event in enumerate(events):
        if event["event"] == "phase_begin":
            open_phases[event["label"]] = \
                open_phases.get(event["label"], 0) + 1
        elif event["event"] == "phase_end":
            open_phases[event["label"]] = \
                open_phases.get(event["label"], 0) - 1
            if open_phases[event["label"]] < 0:
                fail(path, f"line {index + 1}: phase_end "
                           f"'{event['label']}' without a matching "
                           f"phase_begin")
    for label, net in open_phases.items():
        if net != 0:
            fail(path, f"phase '{label}' opened {net} more times than "
                       f"it closed")

    # Every cell_begin is closed by exactly one cell_end (success or
    # checkpoint restore) or cell_error (failure), and a cell_end
    # carries a consistent stat snapshot.
    # Fused passes journal one fused_group event per group chunk with
    # a consistent member roster.
    fused_groups = []
    for index, event in enumerate(events):
        if event["event"] != "fused_group":
            continue
        where = f"line {index + 1}"
        check_fields(path, event, FUSED_GROUP_REQUIRED, where)
        if event["phase"] not in FUSED_GROUP_PHASES:
            fail(path, f"{where}: unknown fused phase "
                       f"'{event['phase']}'")
        roster = event["cells"].split(",")
        if len(roster) != event["members"]:
            fail(path, f"{where}: members {event['members']} != "
                       f"{len(roster)} entries in cells list")
        if event["phase"] == "cells":
            check_fields(path, event, FUSED_CELLS_PHASE_REQUIRED,
                         where)
            for key in FUSED_CELLS_PHASE_REQUIRED:
                values = event[key].split(",")
                if len(values) != event["members"]:
                    fail(path, f"{where}: {key} has {len(values)} "
                               f"entries, expected {event['members']}")
                if not all(v.isdigit() for v in values):
                    fail(path, f"{where}: {key} entries must be "
                               f"unsigned integers")
        fused_groups.append(event)

    # Multi-context cells journal one scenario_cell event each; the
    # cross/self split must classify no more than it counted.
    for index, event in enumerate(events):
        if event["event"] != "scenario_cell":
            continue
        where = f"line {index + 1}"
        check_fields(path, event, SCENARIO_CELL_EVENT_REQUIRED, where)
        if event["contexts"] < 1:
            fail(path, f"{where}: contexts {event['contexts']} < 1")
        if event["destructive_cross"] > event["collisions_cross"]:
            fail(path, f"{where}: destructive_cross > "
                       f"collisions_cross")
        if event["destructive_self"] > event["collisions_self"]:
            fail(path, f"{where}: destructive_self > "
                       f"collisions_self")
        if event["contexts"] == 1 and event["collisions_cross"] != 0:
            fail(path, f"{where}: single-context scenario reports "
                       f"{event['collisions_cross']} cross-context "
                       f"collisions")

    begun = set()
    closed = set()
    cell_ends = []
    cell_errors = []
    for index, event in enumerate(events):
        where = f"line {index + 1}"
        if event["event"] == "cell_begin":
            check_cell_label(path, event["label"], where)
            begun.add((event["label"], event.get("cell")))
        elif event["event"] in ("cell_end", "cell_error"):
            key = (event["label"], event.get("cell"))
            if key not in begun:
                fail(path, f"{where}: {event['event']} without an "
                           f"earlier cell_begin for {key}")
            if key in closed:
                fail(path, f"{where}: cell {key} closed twice")
            closed.add(key)
            if event["event"] == "cell_end":
                check_fields(path, event, CELL_END_REQUIRED, where)
                check_collision_split(path, event, where)
                if "simd" in event:
                    if not isinstance(event["simd"], bool):
                        fail(path, f"{where}: 'simd' must be a bool")
                    if event["simd"] and event.get("kernel") is False:
                        fail(path, f"{where}: simd without kernel")
                cell_ends.append(event)
            else:
                check_fields(path, event, CELL_ERROR_REQUIRED, where)
                if event["code"] not in ERROR_CODES:
                    fail(path, f"{where}: unknown error code "
                               f"'{event['code']}'")
                cell_errors.append(event)
    if len(begun) != len(closed):
        fail(path, f"{len(begun)} cells begun but {len(closed)} "
                   f"closed by cell_end/cell_error")
    restored = sum(1 for e in cell_ends
                   if e.get("restored") is True)

    # Aggregate cross-checks against run_end, for the fields the
    # emitter chose to include (the matrix runner includes them all;
    # the CLI's single-cell run_end only carries cells).
    run_end = events[-1]
    if "cells" in run_end and \
            run_end["cells"] != len(cell_ends) + len(cell_errors):
        fail(path, f"run_end cells {run_end['cells']} != "
                   f"{len(cell_ends)} cell_end + {len(cell_errors)} "
                   f"cell_error events")
    if "failed_cells" in run_end and \
            run_end["failed_cells"] != len(cell_errors):
        fail(path, f"run_end failed_cells "
                   f"{run_end['failed_cells']} != "
                   f"{len(cell_errors)} cell_error events")
    if "restored_cells" in run_end and \
            run_end["restored_cells"] != restored:
        fail(path, f"run_end restored_cells "
                   f"{run_end['restored_cells']} != {restored} "
                   f"restored cell_end events")
    if "fused_groups" in run_end and \
            run_end["fused_groups"] != len(fused_groups):
        fail(path, f"run_end fused_groups "
                   f"{run_end['fused_groups']} != "
                   f"{len(fused_groups)} fused_group events")
    if "kernel_cells" in run_end:
        kernel = sum(1 for e in cell_ends if e.get("kernel") is True)
        if kernel != run_end["kernel_cells"]:
            fail(path, f"run_end kernel_cells "
                       f"{run_end['kernel_cells']} != {kernel} "
                       f"kernel cell_end events")
    if "simd_cells" in run_end:
        simd = sum(1 for e in cell_ends if e.get("simd") is True)
        if simd != run_end["simd_cells"]:
            fail(path, f"run_end simd_cells "
                       f"{run_end['simd_cells']} != {simd} "
                       f"simd cell_end events")
    if "total_branches" in run_end:
        total = sum(e.get("simulated_branches", e["branches"])
                    for e in cell_ends)
        if total != run_end["total_branches"]:
            fail(path, f"run_end total_branches "
                       f"{run_end['total_branches']} != sum of "
                       f"cell_end simulated branches {total}")
    if "profile_cache_hits" in run_end and \
            "profile_cache_misses" in run_end:
        cached = sum(1 for e in cell_ends
                     if e.get("profile_cached") is True)
        accesses = run_end["profile_cache_hits"] + \
            run_end["profile_cache_misses"]
        if not cell_errors and cached != accesses:
            fail(path, f"profile_cache_hits + profile_cache_misses "
                       f"{accesses} != {cached} profile_cached "
                       f"cell_end events")
        if cached > accesses:
            fail(path, f"{cached} profile_cached cell_end events > "
                       f"profile_cache_hits + profile_cache_misses "
                       f"{accesses}")
        # Restored consumers skip their phase and failed phases emit
        # no event, so the executed phases only match the miss count
        # exactly on an uninterrupted, fully successful run.
        phases = sum(1 for e in events
                     if e["event"] == "profile_phase")
        if not cell_errors and restored == 0 and \
                phases != run_end["profile_cache_misses"]:
            fail(path, f"{phases} profile_phase events != "
                       f"profile_cache_misses "
                       f"{run_end['profile_cache_misses']}")
        if phases > run_end["profile_cache_misses"]:
            fail(path, f"{phases} profile_phase events > "
                       f"profile_cache_misses "
                       f"{run_end['profile_cache_misses']}")

    print(f"{path}: ok ({len(events)} events, {len(cell_ends)} cells, "
          f"{len(cell_errors)} failed, {restored} restored, "
          f"{len(fused_groups)} fused groups, "
          f"{len(set(e['thread'] for e in events))} threads)")


def check_metrics_file(path):
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        fail(path, f"cannot read: {error}")
    except json.JSONDecodeError as error:
        fail(path, f"not valid JSON: {error}")

    if not isinstance(data, dict):
        fail(path, "top level must be an object")
    check_fields(path, data, METRICS_REQUIRED, "top level")

    if data["schema"] != METRICS_SCHEMA_ID:
        fail(path, f"schema '{data['schema']}' != "
                   f"'{METRICS_SCHEMA_ID}'")

    for kind in data["events_by_kind"]:
        if kind not in EVENT_KINDS:
            fail(path, f"events_by_kind: unknown event kind '{kind}'")
    by_kind = sum(data["events_by_kind"].values())
    if by_kind != data["total_events"]:
        fail(path, f"events_by_kind sums to {by_kind}, "
                   f"total_events is {data['total_events']}")
    by_thread = sum(data["events_by_thread"].values())
    if by_thread != data["total_events"]:
        fail(path, f"events_by_thread sums to {by_thread}, "
                   f"total_events is {data['total_events']}")

    closed = data["cells_ended"] + data["cells_failed"]
    if data["cells_begun"] != closed:
        fail(path, f"cells_begun {data['cells_begun']} != "
                   f"cells_ended {data['cells_ended']} + "
                   f"cells_failed {data['cells_failed']}")
    if data["cells_restored"] > data["cells_ended"]:
        fail(path, f"cells_restored {data['cells_restored']} > "
                   f"cells_ended {data['cells_ended']}")
    fused_events = data["events_by_kind"].get("fused_group", 0)
    if data["fused_groups"] != fused_events:
        fail(path, f"fused_groups {data['fused_groups']} != "
                   f"{fused_events} fused_group events")
    if data["fused_groups"] > 0 and \
            data["fused_members"] < data["fused_groups"]:
        fail(path, f"fused_members {data['fused_members']} < "
                   f"fused_groups {data['fused_groups']} (every "
                   f"group has at least one member)")
    if data["fused_groups"] == 0 and data["fused_members"] != 0:
        fail(path, f"fused_members {data['fused_members']} without "
                   f"any fused groups")
    # An empty dispatch means the journal's run_begin predates the
    # batch kernels; otherwise it must name a known level.
    if data["dispatch"] and data["dispatch"] not in DISPATCH_LEVELS:
        fail(path, f"unknown dispatch level '{data['dispatch']}'")
    if data["simd_cells"] > data["kernel_cells"]:
        fail(path, f"simd_cells {data['simd_cells']} > "
                   f"kernel_cells {data['kernel_cells']} (batching "
                   f"refines the kernel path)")
    if not data["phases_balanced"]:
        fail(path, "phases_balanced is false")
    if data["phase_begins"] != data["phase_ends"]:
        fail(path, f"phase_begins {data['phase_begins']} != "
                   f"phase_ends {data['phase_ends']}")
    check_collision_split(path, data, "top level")

    for name, stat in data["timers"].items():
        where = f"timers['{name}']"
        if not isinstance(stat, dict):
            fail(path, f"{where}: must be an object")
        check_fields(path, stat, {"count": int,
                                  "seconds": (int, float)}, where)

    print(f"{path}: ok ({data['total_events']} events, "
          f"{data['cells_ended']} cells, "
          f"{len(data['counters'])} counters, "
          f"{len(data['timers'])} timers)")


def check_checkpoint_file(path):
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as error:
        fail(path, f"cannot read: {error}")

    # An empty checkpoint is legal: a sweep killed before any cell
    # finished leaves (at most) an empty file behind.
    fingerprints = set()
    header = None
    for number, line in enumerate(lines, start=1):
        where = f"line {number}"
        if not line.strip():
            fail(path, f"{where}: blank line in JSONL stream")
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            fail(path, f"{where}: not valid JSON: {error}")
        if not isinstance(record, dict):
            fail(path, f"{where}: record must be an object")
        if record.get("schema") == CHECKPOINT_HEADER_SCHEMA_ID:
            # The shard stamp of a sharded sweep: first line only.
            if number != 1:
                fail(path, f"{where}: shard header must be the "
                           f"first line")
            check_fields(path, record, CHECKPOINT_HEADER_REQUIRED,
                         where)
            if not 1 <= record["shard_index"] <= \
                    record["shard_count"]:
                fail(path, f"{where}: shard_index "
                           f"{record['shard_index']} outside "
                           f"1..shard_count "
                           f"{record['shard_count']}")
            if record["shard_cells"] > record["matrix_cells"]:
                fail(path, f"{where}: shard_cells "
                           f"{record['shard_cells']} > matrix_cells "
                           f"{record['matrix_cells']}")
            header = record
            continue
        check_fields(path, record, CHECKPOINT_REQUIRED, where)
        if record["schema"] != CHECKPOINT_SCHEMA_ID:
            fail(path, f"{where}: schema '{record['schema']}' != "
                       f"'{CHECKPOINT_SCHEMA_ID}'")
        if not record["fingerprint"].startswith("v1|"):
            fail(path, f"{where}: fingerprint does not start with "
                       f"'v1|'")
        if record["fingerprint"] in fingerprints:
            fail(path, f"{where}: duplicate fingerprint "
                       f"'{record['fingerprint']}'")
        fingerprints.add(record["fingerprint"])
        if record["mispredictions"] > record["branches"]:
            fail(path, f"{where}: mispredictions > branches")
        if record["branches"] > record["simulated_branches"]:
            fail(path, f"{where}: branches > simulated_branches")
        if record["collisions"] > record["lookups"]:
            fail(path, f"{where}: collisions > lookups")
        if record["simd"] and not record["kernel"]:
            fail(path, f"{where}: simd without kernel")
        classified = record["constructive"] + record["destructive"]
        if classified > record["collisions"]:
            fail(path, f"{where}: constructive + destructive "
                       f"{classified} > collisions "
                       f"{record['collisions']}")
        # Scenario cells persist per-context stats as 5-number rows
        # and the NxN interference matrix as 3-number triples; both
        # are absent on plain cells.
        if "contexts" in record:
            contexts = record["contexts"]
            if not isinstance(contexts, list) or not contexts:
                fail(path, f"{where}: 'contexts' must be a "
                           f"non-empty list")
            for index, row in enumerate(contexts):
                if not isinstance(row, list) or len(row) != 5 or \
                        not all(isinstance(v, int) and v >= 0
                                for v in row):
                    fail(path, f"{where}: contexts[{index}] must be "
                               f"5 non-negative integers")
            if "alias_matrix" in record:
                matrix = record["alias_matrix"]
                expected = len(contexts) * len(contexts)
                if not isinstance(matrix, list) or \
                        len(matrix) != expected:
                    fail(path, f"{where}: alias_matrix must hold "
                               f"{expected} triples")
                for index, triple in enumerate(matrix):
                    if not isinstance(triple, list) or \
                            len(triple) != 3 or \
                            not all(isinstance(v, int) and v >= 0
                                    for v in triple):
                        fail(path, f"{where}: alias_matrix[{index}] "
                                   f"must be 3 non-negative integers")
                    if triple[1] + triple[2] > triple[0]:
                        fail(path, f"{where}: alias_matrix[{index}] "
                                   f"classifies more than its "
                                   f"collisions")
        elif "alias_matrix" in record:
            fail(path, f"{where}: alias_matrix without contexts")

    if header is not None and \
            len(fingerprints) > header["shard_cells"]:
        fail(path, f"{len(fingerprints)} records exceed the header's "
                   f"shard_cells {header['shard_cells']}")

    stamp = ""
    if header is not None:
        stamp = (f", shard {header['shard_index']}/"
                 f"{header['shard_count']}")
    print(f"{path}: ok ({len(fingerprints)} checkpoint "
          f"records{stamp})")


MERGE_SCHEMA_ID = "bpsim-merge-v1"

MERGE_REQUIRED = {
    "schema": str,
    "output": str,
    "shard_count": int,
    "matrix_cells": int,
    "records": int,
    "shards": list,
}

MERGE_SHARD_REQUIRED = {
    "path": str,
    "shard_index": int,
    "shard_cells": int,
    "records": int,
}


def check_merge_file(path):
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        fail(path, f"cannot read: {error}")
    except json.JSONDecodeError as error:
        fail(path, f"not valid JSON: {error}")

    if not isinstance(data, dict):
        fail(path, "top level must be an object")
    check_fields(path, data, MERGE_REQUIRED, "top level")
    if data["schema"] != MERGE_SCHEMA_ID:
        fail(path, f"schema '{data['schema']}' != "
                   f"'{MERGE_SCHEMA_ID}'")
    if len(data["shards"]) != data["shard_count"]:
        fail(path, f"{len(data['shards'])} shard entries != "
                   f"shard_count {data['shard_count']}")

    # A merge only succeeds on a complete, disjoint shard set, so the
    # summary must show every index exactly once and every shard
    # contributing exactly the records its stamp promised.
    seen = set()
    total_records = 0
    for index, shard in enumerate(data["shards"]):
        where = f"shards[{index}]"
        if not isinstance(shard, dict):
            fail(path, f"{where}: must be an object")
        check_fields(path, shard, MERGE_SHARD_REQUIRED, where)
        if not 1 <= shard["shard_index"] <= data["shard_count"]:
            fail(path, f"{where}: shard_index "
                       f"{shard['shard_index']} outside "
                       f"1..shard_count {data['shard_count']}")
        if shard["shard_index"] in seen:
            fail(path, f"{where}: duplicate shard_index "
                       f"{shard['shard_index']}")
        seen.add(shard["shard_index"])
        if shard["records"] != shard["shard_cells"]:
            fail(path, f"{where}: records {shard['records']} != "
                       f"shard_cells {shard['shard_cells']} "
                       f"(incomplete shard)")
        total_records += shard["records"]
    if total_records != data["records"]:
        fail(path, f"shard records sum to {total_records}, "
                   f"records is {data['records']}")
    if data["records"] > data["matrix_cells"]:
        fail(path, f"records {data['records']} > matrix_cells "
                   f"{data['matrix_cells']}")

    print(f"{path}: ok ({data['shard_count']} shards, "
          f"{data['records']} records, "
          f"{data['matrix_cells']} matrix cells)")


# --- service protocol (bpsim_serve / bpsim_cli client) ---------------

SERVICE_REQUEST_SCHEMA_ID = "bpsim-request-v1"
SERVICE_RESPONSE_SCHEMA_ID = "bpsim-response-v1"

SERVICE_OPS = {"run", "sweep", "status", "cancel", "shutdown",
               "subscribe"}

SERVICE_STATES = {"listening", "draining", "stopped"}

SERVICE_REJECT_REASONS = {"malformed", "draining", "quarantined",
                          "duplicate_id", "queue_full"}

SERVICE_OUTCOMES = ERROR_CODES | {"ok"}

SERVICE_REQUEST_REQUIRED = {
    "schema": str,
    "id": str,
    "op": str,
}

SERVICE_SWEEP_REQUIRED = {
    "program": str,
    "input": str,
    "seed": int,
    "predictor": str,
    "sizes": list,
    "scheme": str,
    "shift": str,
    "eval_branches": int,
    "warmup_branches": int,
    "profile_branches": int,
    "profile_input": str,
    "cutoff": (int, float),
    "filter_unstable": bool,
}

SERVICE_RESPONSE_REQUIRED = {
    "schema": str,
    "id": str,
    "ok": bool,
}

SERVICE_ERROR_REQUIRED = {
    "code": str,
    "message": str,
}

REQUEST_BEGIN_REQUIRED = {
    "fingerprint": str,
    "op": str,
    "cells": int,
    "deadline_ms": int,
}

REQUEST_CELL_REQUIRED = {
    "cell": int,
    "ok": bool,
    "restored": bool,
}

REQUEST_END_REQUIRED = {
    "outcome": str,
    "fingerprint": str,
    "executed": int,
    "restored": int,
    "failed": int,
}


def check_service_request(path, obj, where):
    check_fields(path, obj, SERVICE_REQUEST_REQUIRED, where)
    if obj["op"] not in SERVICE_OPS:
        fail(path, f"{where}: unknown op '{obj['op']}'")
    if not obj["id"]:
        fail(path, f"{where}: empty request id")
    if obj["op"] in ("run", "sweep"):
        sweep = obj.get("sweep")
        if not isinstance(sweep, dict):
            fail(path, f"{where}: {obj['op']} request without a "
                       f"sweep object")
        check_fields(path, sweep, SERVICE_SWEEP_REQUIRED,
                     f"{where}: sweep")
        if not sweep["sizes"]:
            fail(path, f"{where}: sweep has no sizes")
        for size in sweep["sizes"]:
            if isinstance(size, bool) or not isinstance(size, int) \
                    or size <= 0:
                fail(path, f"{where}: sweep size '{size}' is not a "
                           f"positive integer")
        if sweep["scheme"] not in KNOWN_SCHEMES:
            fail(path, f"{where}: unknown scheme "
                       f"'{sweep['scheme']}'")
        if sweep["predictor"] not in KNOWN_PREDICTORS:
            fail(path, f"{where}: unknown predictor "
                       f"'{sweep['predictor']}'")
    if obj["op"] == "cancel" and not obj.get("target"):
        fail(path, f"{where}: cancel request without a target")


def check_service_response(path, obj, where):
    check_fields(path, obj, SERVICE_RESPONSE_REQUIRED, where)
    if not obj["ok"]:
        error = obj.get("error")
        if not isinstance(error, dict):
            fail(path, f"{where}: failed response without an error "
                       f"object")
        check_fields(path, error, SERVICE_ERROR_REQUIRED,
                     f"{where}: error")
        if error["code"] not in ERROR_CODES:
            fail(path, f"{where}: unknown error code "
                       f"'{error['code']}'")
    if "retry_after_ms" in obj:
        check_fields(path, obj, {"retry_after_ms": int}, where)
    if "state" in obj and obj["state"] not in SERVICE_STATES:
        fail(path, f"{where}: unknown daemon state '{obj['state']}'")
    cells = obj.get("cells", [])
    if not isinstance(cells, list):
        fail(path, f"{where}: cells must be a list")
    for index, cell in enumerate(cells):
        cell_where = f"{where}: cells[{index}]"
        if not isinstance(cell, dict):
            fail(path, f"{cell_where}: must be an object")
        check_fields(path, cell, CHECKPOINT_REQUIRED, cell_where)
        if cell["schema"] != CHECKPOINT_SCHEMA_ID:
            fail(path, f"{cell_where}: schema '{cell['schema']}' != "
                       f"'{CHECKPOINT_SCHEMA_ID}'")
        check_cell_label(path, cell["label"], cell_where)
    if "executed" in obj and "restored" in obj:
        # Response cells are read back from the request checkpoint:
        # everything executed or restored is in it, failures are not.
        if len(cells) != obj["executed"] + obj["restored"]:
            fail(path, f"{where}: {len(cells)} cells != executed "
                       f"{obj['executed']} + restored "
                       f"{obj['restored']}")
    for index, cell_error in enumerate(obj.get("cell_errors", [])):
        err_where = f"{where}: cell_errors[{index}]"
        if not isinstance(cell_error, dict):
            fail(path, f"{err_where}: must be an object")
        check_fields(path, cell_error,
                     {"label": str, "code": str, "message": str},
                     err_where)
        if cell_error["code"] not in ERROR_CODES:
            fail(path, f"{err_where}: unknown error code "
                       f"'{cell_error['code']}'")


def check_service_event(path, obj, where):
    check_fields(path, obj, EVENT_REQUIRED, where)
    kind = obj["event"]
    if kind not in EVENT_KINDS:
        fail(path, f"{where}: unknown event kind '{kind}'")
    if kind == "service_state":
        if obj["label"] not in SERVICE_STATES:
            fail(path, f"{where}: unknown service state "
                       f"'{obj['label']}'")
    elif kind == "request_begin":
        check_fields(path, obj, REQUEST_BEGIN_REQUIRED, where)
        if obj["op"] not in SERVICE_OPS:
            fail(path, f"{where}: unknown op '{obj['op']}'")
    elif kind == "request_cell":
        check_fields(path, obj, REQUEST_CELL_REQUIRED, where)
        if "code" in obj and obj["code"] not in ERROR_CODES:
            fail(path, f"{where}: unknown error code '{obj['code']}'")
    elif kind == "request_end":
        check_fields(path, obj, REQUEST_END_REQUIRED, where)
        if obj["outcome"] not in SERVICE_OUTCOMES:
            fail(path, f"{where}: unknown outcome "
                       f"'{obj['outcome']}'")
    elif kind == "request_rejected":
        check_fields(path, obj, {"reason": str}, where)
        if obj["reason"] not in SERVICE_REJECT_REASONS:
            fail(path, f"{where}: unknown reject reason "
                       f"'{obj['reason']}'")


def check_service_file(path):
    """Validate a service-mode JSONL stream.

    Accepts any mix of protocol lines (a `bpsim_cli client --save`
    transcript) and service journal events (a bpsim_serve --journal
    file or a subscriber capture), dispatching per line on the
    "schema"/"event" keys.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as error:
        fail(path, f"cannot read: {error}")

    requests = responses = events = 0
    begun = ended = 0
    for number, line in enumerate(lines, start=1):
        where = f"line {number}"
        if not line.strip():
            fail(path, f"{where}: blank line in JSONL stream")
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as error:
            fail(path, f"{where}: not valid JSON: {error}")
        if not isinstance(obj, dict):
            fail(path, f"{where}: line must be an object")
        schema = obj.get("schema")
        if schema == SERVICE_REQUEST_SCHEMA_ID:
            check_service_request(path, obj, where)
            requests += 1
        elif schema == SERVICE_RESPONSE_SCHEMA_ID:
            check_service_response(path, obj, where)
            responses += 1
        elif "event" in obj:
            check_service_event(path, obj, where)
            events += 1
            if obj["event"] == "request_begin":
                begun += 1
            elif obj["event"] == "request_end":
                ended += 1
        else:
            fail(path, f"{where}: neither a protocol line nor a "
                       f"journal event")

    if requests + responses + events == 0:
        fail(path, "service stream is empty")
    if ended > begun:
        fail(path, f"{ended} request_end events > {begun} "
                   f"request_begin events")

    print(f"{path}: ok ({requests} requests, {responses} responses, "
          f"{events} journal events)")


CHECKERS = {
    "runner": check_runner_file,
    "journal": check_journal_file,
    "metrics": check_metrics_file,
    "checkpoint": check_checkpoint_file,
    "merge": check_merge_file,
    "service": check_service_file,
}


def main(argv):
    schema = "runner"
    warm_cache = False
    paths = []
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--schema":
            if i + 1 >= len(argv):
                print("--schema needs a value", file=sys.stderr)
                return 2
            schema = argv[i + 1]
            i += 2
            continue
        if arg.startswith("--schema="):
            schema = arg.split("=", 1)[1]
            i += 1
            continue
        if arg == "--warm-cache":
            warm_cache = True
            i += 1
            continue
        paths.append(arg)
        i += 1
    if schema not in CHECKERS:
        print(f"unknown schema '{schema}' (expected "
              f"{'/'.join(sorted(CHECKERS))})", file=sys.stderr)
        return 2
    if warm_cache and schema != "runner":
        print("--warm-cache only applies to the runner schema",
              file=sys.stderr)
        return 2
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    for path in paths:
        if schema == "runner":
            check_runner_file(path, warm_cache=warm_cache)
        else:
            CHECKERS[schema](path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
