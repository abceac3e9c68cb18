"""The benchmark's workloads: fixed lists of floydlab CLI jobs, the input
files they need, and the checks their result files must pass.

Every job writes one result file at a fixed relative path inside the
workload's work directory; `--graph` and `--structure` are relative too,
because both appear in output headers. The harness appends `--threads 2`
to every job and `--seed <workload seed>` to every command that takes one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

THREADS = "2"
SEEDED = ("floyd-diam", "divergence", "criterion", "verify-thick")


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    out: str
    # (result text, captured stdout) -> problem, or None when the result is right
    check: Callable[[str, str], str | None]
    rc: int = 0  # expected exit code (2: inconclusive verdict at this scale)

    def command(self, seed: int) -> list[str]:
        argv = [*self.argv, "--out", self.out, "--threads", THREADS]
        if self.argv[0] in SEEDED:
            argv += ["--seed", str(seed)]
        return argv


@dataclass(frozen=True)
class Workload:
    jobs: tuple[Job, ...]
    # Structure files to write in set-up: file name -> (model, radius, C, kind),
    # kind "whole" (one order-0 subset) or k (four half-planes, see below)
    structures: dict


# ---------------------------------------------------------------- checks

def _rows(text: str) -> list[list[str]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _diameters(text: str) -> list[tuple[int, float]]:
    return [(int(r[0]), float(r[1])) for r in _rows(text)]


def _divergence(text: str) -> dict[int, int | None]:
    return {int(r[0]): None if r[1] == "inf" else int(r[1]) for r in _rows(text)}


def gen_counts(vertices: int, edges: int):
    def check(text, stdout):
        want = f"vertices={vertices} edges={edges}"
        if stdout.strip() != want:
            return f"gen printed {stdout.strip()!r}, expected {want!r}"
        if not text.split("\n", 2)[1].startswith(f"{vertices} {edges} 0 "):
            return "graph file counts line disagrees with the ball"
        return None
    return check


def tree_series(radii: range):
    """Free group: diameters nondecreasing, and diam(S_R) equals the tree
    oracle 2 * (f(0) + f(1) + ... + f(R-1)) for invpow:2 with f(0) = f(1)."""
    def check(text, stdout):
        series = _diameters(text)
        if [r for r, _ in series] != list(radii):
            return f"radii {[r for r, _ in series]} != {list(radii)}"
        values = [d for _, d in series]
        if any(b < a for a, b in zip(values, values[1:])):
            return f"F2 series not nondecreasing: {values}"
        top = radii[-1]
        oracle = 2 * (1 + sum(1 / n ** 2 for n in range(1, top)))
        if abs(values[-1] - oracle) > 1e-9:
            return f"diam(S_{top}) = {values[-1]!r}, tree oracle {oracle!r}"
        return None
    return check


def vanishing_series(radii: range, ratio: float | None):
    """Z^2: diameters strictly decreasing, last/first at most `ratio`."""
    def check(text, stdout):
        series = _diameters(text)
        if [r for r, _ in series] != list(radii):
            return f"radii {[r for r, _ in series]} != {list(radii)}"
        values = [d for _, d in series]
        if not all(0 < b < a for a, b in zip(values, values[1:])):
            return f"Z2 series not strictly decreasing: {values}"
        if ratio is not None and values[-1] > ratio * values[0]:
            return f"last/first = {values[-1] / values[0]:.4f} > {ratio}"
        return None
    return check


def verdict_line(verdict: str):
    def check(text, stdout):
        last = text.rstrip("\n").rsplit("\n", 1)[-1]
        if last != f"# verdict: {verdict}":
            return f"criterion ended with {last!r}"
        return None
    return check


def linear_divergence(n_lo: int, n_hi: int):
    """Least-squares slope of log Div(n) on log n over n_lo..n_hi in
    [0.8, 1.2] (growth_fit's linear-compatible band), no infinity markers."""
    def check(text, stdout):
        div = _divergence(text)
        ns = list(range(n_lo, n_hi + 1))
        if any(div.get(n) is None for n in ns):
            return f"missing or infinite samples in n={n_lo}..{n_hi}: {div}"
        xs = [math.log(n) for n in ns]
        ys = [math.log(div[n]) for n in ns]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                 / sum((x - mx) ** 2 for x in xs))
        if not 0.8 <= slope <= 1.2:
            return f"slope {slope:.4f} outside the linear band [0.8, 1.2]"
        return None
    return check


def infinite_from(n_inf: int):
    def check(text, stdout):
        div = _divergence(text)
        if not div or any((v is None) != (n >= n_inf) for n, v in div.items()):
            return f"expected infinity markers exactly for n >= {n_inf}: {div}"
        return None
    return check


def thick_overall(expected: bool, leaf_verdict: str | None = None):
    def check(text, stdout):
        doc = json.loads(text)
        if doc["overall"] is not expected:
            return f"overall {doc['overall']}, expected {expected}"
        if leaf_verdict is not None and any(
                s["divergence_verdict"] != leaf_verdict for s in doc["subsets"]):
            return f"leaf verdicts {[s['divergence_verdict'] for s in doc['subsets']]}"
        return None
    return check


def completes(text, stdout):
    return None if text.strip() else "empty result file"


# ---------------------------------------------------------------- inputs

def write_structures(structures: dict) -> None:
    """Write each structure JSON into the current directory."""
    from floydlab.group_models import cayley_ball_labeled, parse_model

    for path, (model, radius, c, kind) in structures.items():
        _, elements = cayley_ball_labeled(parse_model(model), radius)
        if kind == "whole":
            doc = {"C": c, "order": 0, "D_min": 4, "subsets": [
                {"name": "all", "vertices": list(range(len(elements))),
                 "substructure": None}]}
        else:
            # Four overlapping half-planes x >= -k, x <= k, y >= -k, y <= k:
            # an order-1 cover whose pieces are wide and chain-linked.
            k = kind
            tests = (("x>=-k", lambda e: e[0] >= -k), ("x<=k", lambda e: e[0] <= k),
                     ("y>=-k", lambda e: e[1] >= -k), ("y<=k", lambda e: e[1] <= k))
            doc = {"C": c, "order": 1, "D_min": 4, "subsets": [
                {"name": name, "substructure": None,
                 "vertices": [i for i, e in enumerate(elements) if test(e)]}
                for name, test in tests]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------- workloads

def _z2(r):
    return 2 * r * r + 2 * r + 1, 4 * r * r


def _f2(r):
    return 2 * 3 ** r - 1, 2 * 3 ** r - 2


WORKLOADS = {
    "floyd-geometry": Workload((
        Job(("gen", "--model", "free:2", "--radius", "8"), "f2-r8.graph",
            gen_counts(*_f2(8))),
        Job(("floyd-diam", "--graph", "f2-r8.graph", "--floyd", "invpow:2",
             "--radii", "2..8", "--margin", "1"), "f2-r8.csv",
            tree_series(range(2, 9))),
        Job(("gen", "--model", "zn:2", "--radius", "48"), "z2-r48.graph",
            gen_counts(*_z2(48))),
        Job(("floyd-diam", "--graph", "z2-r48.graph", "--floyd", "invpow:2",
             "--radii", "4..16", "--margin", "3"), "z2-r48.csv",
            vanishing_series(range(4, 17), 0.35)),
    ), {}),
    "divergence-decay": Workload((
        Job(("criterion", "--model", "zn:2", "--radius", "72", "--floyd",
             "invpow:3", "--n-range", "2..12", "--protocol", "sampled"),
            "z2-criterion.txt", verdict_line("decaying")),
        Job(("divergence", "--model", "zn:2", "--radius", "15", "--margin", "1.5",
             "--n-range", "1..10", "--protocol", "exhaustive"), "z2-divergence.txt",
            linear_divergence(4, 10)),
        Job(("divergence", "--model", "free:2", "--radius", "4", "--n-range",
             "1..4", "--protocol", "exhaustive", "--margin", "1"),
            "f2-divergence.txt", infinite_from(2)),
    ), {}),
    "big-ball": Workload((
        Job(("gen", "--model", "zn:2", "--radius", "250"), "z2-r250.graph",
            gen_counts(*_z2(250))),
        Job(("floyd-diam", "--graph", "z2-r250.graph", "--floyd", "invpow:2",
             "--radii", "2..4"), "z2-r250.csv", vanishing_series(range(2, 5), None)),
        Job(("gen", "--model", "heis", "--radius", "16"), "heis-r16.graph",
            gen_counts(27905, 48864)),
    ), {}),
    "thick-verify": Workload((
        Job(("verify-thick", "--model", "prod:zn:1,free:2", "--radius", "8",
             "--structure", "prod-r8.json", "--protocol", "sampled", "--margin",
             "1.4", "--segment-length", "6"), "prod-r8.verdict.json",
            thick_overall(True)),
        Job(("verify-thick", "--model", "zn:2", "--radius", "30", "--structure",
             "z2-r30-halfplanes.json", "--pairs-per-n", "16"),
            "z2-r30.verdict.json", thick_overall(True)),
        Job(("verify-thick", "--model", "free:2", "--radius", "7", "--structure",
             "f2-r7.json", "--margin", "1", "--segment-length", "6"),
            "f2-r7.verdict.json", thick_overall(False, "infinite")),
        Job(("verify-thick", "--model", "heis", "--radius", "8", "--structure",
             "heis-r8.json"), "heis-r8.verdict.json",
            thick_overall(False, "insufficient-data"), rc=2),
    ), {"prod-r8.json": ("prod:zn:1,free:2", 8, 1.0, "whole"),
        "z2-r30-halfplanes.json": ("zn:2", 30, 1.0, 10),
        "f2-r7.json": ("free:2", 7, 1.0, "whole"),
        "heis-r8.json": ("heis", 8, 1.5, "whole")}),
}

# Tiny radii, same commands: for checking the harness, not the program.
SMOKE = {
    "floyd-geometry": Workload((
        Job(("gen", "--model", "free:2", "--radius", "4"), "f2-r4.graph",
            gen_counts(*_f2(4))),
        Job(("floyd-diam", "--graph", "f2-r4.graph", "--floyd", "invpow:2",
             "--radii", "2..4", "--margin", "1"), "f2-r4.csv",
            tree_series(range(2, 5))),
    ), {}),
    "divergence-decay": Workload((
        Job(("criterion", "--model", "zn:2", "--radius", "12", "--floyd",
             "invpow:3", "--n-range", "1..2", "--protocol", "sampled"),
            "z2-criterion.txt", completes),
        Job(("divergence", "--model", "zn:2", "--radius", "6", "--n-range",
             "1..2", "--protocol", "exhaustive"), "z2-divergence.txt", completes),
        Job(("divergence", "--model", "free:2", "--radius", "3", "--n-range",
             "1..3", "--protocol", "exhaustive", "--margin", "1"),
            "f2-divergence.txt", infinite_from(2)),
    ), {}),
    "big-ball": Workload((
        Job(("gen", "--model", "zn:2", "--radius", "12"), "z2-r12.graph",
            gen_counts(*_z2(12))),
        Job(("floyd-diam", "--graph", "z2-r12.graph", "--floyd", "invpow:2",
             "--radii", "2..4"), "z2-r12.csv", completes),
    ), {}),
    "thick-verify": Workload((
        Job(("verify-thick", "--model", "zn:2", "--radius", "10", "--structure",
             "z2-r10-halfplanes.json", "--margin", "2"), "z2-r10.verdict.json",
            completes),
        Job(("verify-thick", "--model", "free:2", "--radius", "4", "--structure",
             "f2-r4.json", "--margin", "1", "--segment-length", "6"),
            "f2-r4.verdict.json", thick_overall(False, "infinite")),
    ), {"z2-r10-halfplanes.json": ("zn:2", 10, 1.0, 2),
        "f2-r4.json": ("free:2", 4, 1.0, "whole")}),
}
