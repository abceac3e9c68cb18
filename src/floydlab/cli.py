"""Command-line entry point tying the modules into reproducible experiments.

Commands: gen, floyd-diam, divergence, criterion, verify-thick. Every output
file embeds a header comment with the fully resolved configuration, and
reruns with identical flags and seed are byte-identical. Every command
accepts `--threads N` (N >= 1) and ignores it: the work runs serially.
Exit codes: 0 computed, 1 input error, 2 inconclusive verdict (verify-thick
with a sub-verdict that could not be decided at this scale).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import divergence as div_mod
from . import floyd_metric as fm
from . import graph_core, group_models, thickness
from .errors import FloydlabError

ENV_VERTEX_CAP = "FLOYDLAB_VERTEX_CAP"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _vertex_cap(args) -> int:
    env = os.environ.get(ENV_VERTEX_CAP)
    if env is None:
        return args.cap
    if not (env.isascii() and env.isdigit() and int(env) >= 1):
        raise ValueError(f"{ENV_VERTEX_CAP}: expected an integer >= 1, got {env!r}")
    return int(env)


def _add_source_args(p, need_radius=True):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="model spec: zn:<n>, free:<k>, heis, "
                                       "prod:<m1>,<m2>, freeprod:<m1>,<m2>")
    group.add_argument("--graph", help="path to a graph file")
    p.add_argument("--radius", type=int,
                   help="ball radius (required with --model)" if need_radius else argparse.SUPPRESS)
    p.add_argument("--cap", type=int, default=group_models.DEFAULT_VERTEX_CAP,
                   help="ball vertex cap (env %s overrides)" % ENV_VERTEX_CAP)


def _load_ball(args) -> graph_core.GraphBall:
    if args.graph is not None:
        return graph_core.read_graph_file(args.graph)
    if args.radius is None:
        raise ValueError("--radius is required with --model")
    model = group_models.parse_model(args.model)
    return group_models.cayley_ball(model, args.radius, vertex_cap=_vertex_cap(args))


def _config_line(command: str, args, keys) -> str:
    parts = [f"{k}={getattr(args, k.replace('-', '_'))}" for k in sorted(keys)]
    return f"# floydlab {command} " + " ".join(parts)


def _emit(out_path, lines) -> None:
    text = "\n".join(lines) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _parse_range(text: str, flag: str, least: int) -> range:
    """The integers A..B of a range flag: ASCII digits, least <= A <= B."""
    lo, sep, hi = text.partition("..")
    if not (sep and (lo + hi).isascii() and lo.isdigit() and hi.isdigit()
            and least <= int(lo) <= int(hi)):
        raise ValueError(f"{flag}: bad range {text!r}, expected A..B "
                         f"with {least} <= A <= B")
    return range(int(lo), int(hi) + 1)


def cmd_gen(args) -> int:
    model = group_models.parse_model(args.model)
    ball = group_models.cayley_ball(model, args.radius, vertex_cap=_vertex_cap(args))
    graph_core.write_graph_file(args.out, ball)
    print(f"vertices={ball.vertex_count} edges={ball.edge_count}")
    return 0


def cmd_floyd_diam(args) -> int:
    ball = _load_ball(args)
    f = fm.parse_floyd(args.floyd)
    w = fm.floyd_weighting(ball, f)
    radii = _parse_range(args.radii, "--radii", 0)
    keys = ["model", "graph", "radius", "floyd", "radii", "margin", "pair_cap",
            "seed"]
    lines = [_config_line("floyd-diam", args, keys), "r,diameter,witness_u,witness_v"]
    series = []
    for r in radii:
        try:
            res = fm.sphere_floyd_diameter(w, r, margin=args.margin,
                                           pair_cap=args.pair_cap)
        except FloydlabError as exc:
            print(f"radius {r} omitted: {exc}", file=sys.stderr)
            continue
        series.append((r, res.diameter))
        lines.append(f"{r},{res.diameter!r},{res.witness[0]},{res.witness[1]}")
    _emit(args.out, lines)
    print(f"trend: {fm.sphere_diameter_trend(series)}", file=sys.stderr)
    return 0


def _divergence_samples(args, ball, n_max):
    params = div_mod.DivergenceParams(delta=args.delta, gamma=args.gamma)
    return params, div_mod.div_function_estimate(
        ball, n_max, params, protocol=args.protocol, seed=args.seed,
        margin=args.margin, n_min=1, pairs_per_n=args.pairs_per_n,
        c_per_pair=args.c_per_pair)


_DIV_KEYS = ["model", "graph", "radius", "n_range", "delta", "gamma",
             "protocol", "seed", "margin", "pairs_per_n", "c_per_pair"]


def cmd_divergence(args) -> int:
    ball = _load_ball(args)
    n_range = _parse_range(args.n_range, "--n-range", 1)
    _, samples = _divergence_samples(args, ball, max(n_range))
    lines = [_config_line("divergence", args, _DIV_KEYS),
             "n,value_or_inf,a,b,c,forbidden_radius,protocol,seed"]
    for s in samples:
        if s.n not in n_range:
            continue
        value = "inf" if s.is_infinite else str(s.value)
        a, b, c = s.witness
        lines.append(f"{s.n},{value},{a},{b},{c},{s.forbidden_radius!r},"
                     f"{s.protocol},{s.seed}")
    _emit(args.out, lines)
    return 0


def cmd_criterion(args) -> int:
    ball = _load_ball(args)
    f = fm.parse_floyd(args.floyd)
    n_range = _parse_range(args.n_range, "--n-range", 1)
    params, samples = _divergence_samples(args, ball, 2 * max(n_range))
    result = div_mod.criterion_check(samples, f, params, n_range)
    keys = _DIV_KEYS + ["floyd"]
    lines = [_config_line("criterion", args, keys), "n,div_2n,f_argument,term"]
    for t in result.terms:
        d = "inf" if t.div_2n is None else str(t.div_2n)
        term = "inf" if t.term is None else repr(t.term)
        lines.append(f"{t.n},{d},{t.f_argument},{term}")
    lines.append(f"# verdict: {result.verdict}")
    _emit(args.out, lines)
    return 0


def cmd_verify_thick(args) -> int:
    ball = _load_ball(args)
    structure = thickness.load_structure(args.structure)
    div_cfg = thickness.DivergenceCheckConfig(
        params=div_mod.DivergenceParams(delta=args.delta, gamma=args.gamma),
        margin=args.margin, protocol=args.protocol, seed=args.seed,
        pairs_per_n=args.pairs_per_n, c_per_pair=args.c_per_pair)
    verdict = thickness.verify_thick(ball, structure, div_cfg, args.segment_length)
    doc = verdict.to_dict()
    keys = ["model", "graph", "radius", "structure", "delta", "gamma", "margin",
            "protocol", "seed", "segment_length"]
    doc["config"] = _config_line("verify-thick", args, keys)[2:]
    _emit(args.out, [json.dumps(doc, sort_keys=True, indent=2)])
    return 2 if verdict.inconclusive else 0


def _add_common_divergence_args(p):
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--protocol", choices=["auto", "exhaustive", "sampled"],
                   default="auto")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin", type=float, default=3.0)
    p.add_argument("--pairs-per-n", type=int, default=8)
    p.add_argument("--c-per-pair", type=int, default=4)


def build_parser() -> _Parser:
    parser = _Parser(prog="floydlab",
                     description="Floyd metrics, divergence and thickness "
                                 "experiments on finite graph balls")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[], help="generate a Cayley ball graph file")
    p.add_argument("--model", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--cap", type=int, default=group_models.DEFAULT_VERTEX_CAP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("floyd-diam", help="sphere Floyd diameters over a radius range")
    _add_source_args(p)
    p.add_argument("--floyd", required=True,
                   help="invpow:<p>, exp:<lambda>, invsq1, table:<path>")
    p.add_argument("--radii", required=True, help="A..B")
    p.add_argument("--margin", type=float, default=3.0)
    p.add_argument("--pair-cap", type=int, default=250_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_floyd_diam)

    p = sub.add_parser("divergence", help="divergence function estimate")
    _add_source_args(p)
    p.add_argument("--n-range", required=True, help="A..B")
    _add_common_divergence_args(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_divergence)

    p = sub.add_parser("criterion", help="divergence-vs-Floyd decay criterion")
    _add_source_args(p)
    p.add_argument("--floyd", required=True)
    p.add_argument("--n-range", required=True, help="A..B")
    _add_common_divergence_args(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_criterion)

    p = sub.add_parser("verify-thick", help="verify a declared thick structure")
    _add_source_args(p)
    p.add_argument("--structure", required=True, help="structure JSON path")
    _add_common_divergence_args(p)
    p.add_argument("--segment-length", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify_thick)

    for p in sub.choices.values():
        p.add_argument("--threads", type=int, default=1,
                       help="has no effect; accepted so that existing "
                            "command lines keep working")
    return parser


# flag -> least value
_INT_FLAGS = {"cap": 1, "pair_cap": 1, "pairs_per_n": 1, "c_per_pair": 1,
              "threads": 1, "radius": 0, "segment_length": 2}


def _check_ints(args) -> None:
    """Every integer flag the command has must be at least its least value."""
    for name, least in _INT_FLAGS.items():
        value = getattr(args, name, None)
        if value is not None and value < least:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag}: expected an integer >= {least}, got {value}")


# flag -> (range test, which is false for NaN; what the flag expects)
_REAL_FLAGS = {
    "delta": (lambda x: 0 < x < 1, "a real in (0, 1)"),
    "gamma": (lambda x: 0 <= x < math.inf, "a finite real >= 0"),
    "margin": (lambda x: 1 <= x < math.inf, "a finite real >= 1"),
}


def _check_reals(args) -> None:
    """Every real flag the command has must lie in its range."""
    for name, (ok, want) in _REAL_FLAGS.items():
        value = getattr(args, name, None)
        if value is not None and not ok(value):
            raise ValueError(f"--{name}: expected {want}, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_ints(args)
        _check_reals(args)
        return args.func(args)
    except (FloydlabError, ValueError, OSError) as exc:
        print(f"floydlab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
