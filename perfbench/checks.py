"""Output checks and digests for one workload process.

A process passes when it exits 0 and its outputs match what the workload
promises: for `verify`, every check PASS; for a sweep, the documented CSV
header, exactly the expected rows with finite values and the configured
trial count, the cells that must read exactly zero, and a manifest whose
config matches the argv.  Digests let runs of one commit be compared byte
for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import PROBES, SWEEP_HEADER, VERIFY_CHECKS, Workload


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_verify(report: str) -> list[str]:
    errors = []
    lines = [line for line in report.splitlines() if line]
    names = [line.split(":", 1)[0].split(" ", 1)[-1] for line in lines]
    if names != list(VERIFY_CHECKS):
        errors.append(f"verify printed checks {names}, expected {list(VERIFY_CHECKS)}")
    failed = [line for line in lines if not line.startswith("PASS ")]
    if failed:
        errors.append(f"verify checks not PASS: {failed}")
    return errors


def check_sweep_csv(workload: Workload, text: str) -> list[str]:
    lines = text.splitlines()
    header = SWEEP_HEADER.format(axis=workload.axis)
    if not lines or lines[0] != header:
        return [f"CSV header {lines[:1]} is not {header!r}"]
    rows = list(csv.reader(lines[1:]))
    errors = []
    if [tuple(row[:4]) for row in rows] != workload.expected_rows():
        errors.append(f"CSV has {len(rows)} rows, expected {len(workload.expected_rows())} in documented order")
    for row in rows:
        try:
            ok = (
                len(row) == 7
                and all(math.isfinite(float(v)) for v in row[3:6])
                and int(row[6]) == workload.trials
            )
        except ValueError:
            ok = False
        if not ok:
            errors.append(f"CSV row {row} is malformed, not finite, or has trials != {workload.trials}")
    if errors:
        return errors
    for construction, family, value in workload.zero_cells:
        cell = [r for r in rows if r[:3] == [construction, family, str(value)]]
        if len(cell) != len(PROBES) or any(float(r[4]) != 0.0 or float(r[5]) != 0.0 for r in cell):
            errors.append(f"rows {construction},{family},{value} are not exactly zero: {cell}")
    return errors


def check_manifest(workload: Workload, seed: int, manifest: dict) -> list[str]:
    errors = []
    config = manifest.get("config", {})
    expected = {**dict(workload.config), "master_seed": seed}
    for key, value in expected.items():
        if config.get(key) != value:
            errors.append(f"manifest config {key}={config.get(key)!r}, argv gives {value!r}")
    if manifest.get("seed") != seed:
        errors.append(f"manifest seed {manifest.get('seed')!r}, argv gives {seed}")
    axis = {"name": workload.axis, "values": list(workload.axis_values)}
    if manifest.get("axis") != axis:
        errors.append(f"manifest axis {manifest.get('axis')!r}, argv gives {axis}")
    return errors


def check_outputs(workload: Workload, seed: int, out: Path, stdout: str) -> tuple[list[str], dict[str, str]]:
    """Errors found in one process's outputs, and the sha256 of each output.

    The manifest is hashed without its `started_at` stamp, the only field
    that legitimately differs between reruns.
    """
    if workload.axis is None:
        return check_verify(stdout), {"report": _sha256(stdout.encode())}
    manifest_path = out.with_suffix(".manifest.json")
    try:
        csv_bytes = out.read_bytes()
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], {}
    errors = check_sweep_csv(workload, csv_bytes.decode()) + check_manifest(workload, seed, manifest)
    manifest.pop("started_at", None)
    digests = {
        out.name: _sha256(csv_bytes),
        manifest_path.name: _sha256(json.dumps(manifest, sort_keys=True).encode()),
    }
    return errors, digests
