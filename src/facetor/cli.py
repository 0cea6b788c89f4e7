"""Command-line front end.

Input documents are JSON: {"m": <int>, "complement": [[...], ...]} or
{"m": <int>, "facets": [[...], ...]}, vertices 1-indexed.  Every
subcommand takes --json for a machine-readable rendering of the same
data.  Exit codes: 0 success, 1 internal fault (an uncaught exception,
with its traceback) or a reader that closed stdout early (quietly), 2
parse/usage error, 3 capability error, 4 verification failure.

main(argv) may be called repeatedly in one process: the argument parser
is built on the first call and reused by every later one.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

from .bitsets import MAX_AMBIENT, mask_of, popcount, set_str, vertices
from .complexes import (
    Complement,
    SimplicialComplex,
    complement_from_complex,
    complex_from_complement,
    compress,
    full_subcomplex,  # unused here; perfbench/tracer.py patches it by this name
    link,
    star,
)
from .hochster import check_all_sigma, compare_blocks
from .linalg import QQ, ZZ, CapabilityError, CoefficientSpec, PrimeField
from .moment_angle import PairSpec, link_tor, maz_cohomology, star_tor
from .polynomials import pstr
from .sampling import random_complement
from .taylor import MAX_GENERATORS
from .tor import TorRing, tor_bigraded, zk_poincare


class InputError(Exception):
    """Malformed or out-of-range input document."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise InputError(f"{path}: {exc}") from exc


def _vertex_lists(doc, field: str, m: int) -> list[list[int]]:
    lists = doc[field]
    if not isinstance(lists, list):
        raise InputError(f"{field}: expected a list of vertex lists")
    out = []
    for i, entry in enumerate(lists):
        if not isinstance(entry, list):
            raise InputError(f"{field}[{i}]: expected a vertex list")
        for j, v in enumerate(entry):
            if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= m:
                raise InputError(f"{field}[{i}][{j}]: vertex {v!r} out of range 1..{m}")
        out.append(entry)
    return out


def load_input(path: str) -> Complement:
    """Parse an input document down to a complement (facets are
    converted through their minimal non-faces)."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: expected a JSON object")
    if "m" not in doc:
        raise InputError("m: missing")
    m = doc["m"]
    if not isinstance(m, int) or isinstance(m, bool) or not 1 <= m <= MAX_AMBIENT:
        raise InputError(f"m: expected an integer in 1..{MAX_AMBIENT}, got {m!r}")
    has_c = "complement" in doc
    has_f = "facets" in doc
    if has_c == has_f:
        raise InputError("expected exactly one of 'complement' or 'facets'")
    if has_c:
        return Complement(m, tuple(mask_of(vs, m) for vs in _vertex_lists(doc, "complement", m)))
    K = SimplicialComplex(m, tuple(mask_of(vs, m) for vs in _vertex_lists(doc, "facets", m)))
    if K.is_void:
        raise InputError('void complex has no missing-face presentation; use {"complement": [[]]}')
    return complement_from_complex(K)


def load_pairs(path: str, m: int) -> PairSpec:
    doc = _load_json(path)
    if not isinstance(doc, list):
        raise InputError(f"{path}: expected a JSON list of {{'X': ..., 'A': ...}} entries")
    if len(doc) != m:
        raise InputError(f"pairs: expected {m} entries, got {len(doc)}")
    polys: dict[str, list] = {"X": [], "A": []}
    for i, entry in enumerate(doc):
        if not isinstance(entry, dict) or set(entry) - {"X", "A"}:
            raise InputError(f"pairs[{i}]: expected an object with keys 'X' and 'A'")
        for key, side in polys.items():
            pairs = entry.get(key, [])
            if not isinstance(pairs, list):
                raise InputError(f"pairs[{i}].{key}: expected a list of [degree, rank]")
            for j, dr in enumerate(pairs):
                if (
                    not isinstance(dr, list)
                    or len(dr) != 2
                    or not all(isinstance(x, int) and not isinstance(x, bool) for x in dr)
                ):
                    raise InputError(f"pairs[{i}].{key}[{j}]: expected [degree, rank]")
            side.append(tuple(map(tuple, pairs)))
    # PairSpec checks the values: degrees >= 1 and distinct, ranks >= 0
    try:
        return PairSpec(tuple(polys["X"]), tuple(polys["A"]))
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _parse_coeff(text: str) -> CoefficientSpec:
    if text == "q":
        return QQ
    if text == "z":
        return ZZ
    if text.startswith("f:"):
        try:
            return PrimeField(int(text[2:]))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad coefficient field {text!r}: {exc}")
    raise argparse.ArgumentTypeError(f"bad coefficient spec {text!r} (use q, z, or f:<p>)")


def _parse_field_coeff(text: str) -> CoefficientSpec:
    coeff = _parse_coeff(text)
    if coeff == ZZ:
        raise argparse.ArgumentTypeError("this command needs field coefficients (q or f:<p>)")
    return coeff


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an integer in lo..hi (no upper bound when hi is None)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < lo or (hi is not None and value > hi):
            bounds = f"{lo}..{hi}" if hi is not None else f">= {lo}"
            raise argparse.ArgumentTypeError(f"expected an integer {bounds}, got {value}")
        return value

    return parse


def _parse_omega(text: str, m: int) -> int:
    try:
        return mask_of([int(part) for part in text.split(",") if part != ""], m)
    except ValueError as exc:
        raise InputError(f"omega: {exc}")


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _emit_series(command: str, m: int, series, as_json: bool) -> None:
    total = sum(series.values())
    if as_json:
        series_json = [[d, c] for d, c in sorted(series.items())]
        _print_json({"command": command, "m": m, "series": series_json, "total": total})
    else:
        print(f"{pstr(series)} (total {total})")


def _tor_payload(tor) -> dict:
    blocks = []
    for (q, sigma), group in tor.blocks():
        blocks.append(
            {
                "q": q,
                "sigma": list(vertices(sigma)),
                "deg": 2 * popcount(sigma) - q,
                "rank": group.rank,
                "torsion": list(group.torsion),
            }
        )
    return {"blocks": blocks, "total_rank": tor.total_rank()}


def _tor_lines(tor) -> list[str]:
    lines = []
    for (q, sigma), group in tor.blocks():
        line = f"q={q} sigma={set_str(sigma)} deg={2 * popcount(sigma) - q} rank={group.rank}"
        if group.torsion:
            line += " torsion=" + ",".join(str(t) for t in group.torsion)
        lines.append(line)
    lines.append(f"total rank {tor.total_rank()}")
    return lines


def _cmd_tor(args) -> int:
    P = load_input(args.input)
    tor = tor_bigraded(P, args.coeff)
    if args.json:
        _print_json({"command": "tor", "m": P.m, "coeff": str(args.coeff), **_tor_payload(tor)})
    else:
        print("\n".join(_tor_lines(tor)))
    return 0


def _cmd_zk(args) -> int:
    P = load_input(args.input)
    _emit_series("zk", P.m, zk_poincare(P, QQ), args.json)
    return 0


def _cmd_ring(args) -> int:
    P = load_input(args.input)
    ring = TorRing(P, args.coeff)
    products = [
        entry
        for entry in ring.multiplication_table()
        if entry["terms"] and ring.class_by_name(entry["left"]).q and ring.class_by_name(entry["right"]).q
    ]
    if args.json:
        basis = [
            {"name": name, "q": tc.q, "sigma": list(vertices(tc.sigma)), "deg": 2 * popcount(tc.sigma) - tc.q}
            for name, tc in ring.basis
        ]
        shown = [
            {"left": e["left"], "right": e["right"], "terms": [[name, str(c)] for name, c in e["terms"]]}
            for e in products
        ]
        _print_json({"command": "ring", "m": P.m, "coeff": str(args.coeff), "basis": basis, "products": shown})
        return 0
    lines = [f"basis (rank {len(ring.basis)}):"]
    for name, tc in ring.basis:
        lines.append(f"  [{name}] q={tc.q} sigma={set_str(tc.sigma)} deg={2 * popcount(tc.sigma) - tc.q}")
    lines.append("nonzero products (positive-degree pairs):")
    for e in products:
        combo = " + ".join((name if c == 1 else f"{c}*{name}") for name, c in e["terms"])
        lines.append(f"  [{e['left']}] * [{e['right']}] = {combo}")
    if not products:
        lines.append("  (none)")
    print("\n".join(lines))
    return 0


def _cmd_star_link(args, which: str) -> int:
    P = load_input(args.input)
    omega = _parse_omega(args.omega, P.m)
    K = complex_from_complement(P)
    if K.is_void:
        raise CapabilityError("the void complex has no star or link")
    shape, shape_tor = (star, star_tor) if which == "star" else (link, link_tor)
    result, tor = shape(K, omega), shape_tor(P, omega, args.coeff)
    if args.json:
        payload = {
            "command": which,
            "m": P.m,
            "omega": list(vertices(omega)),
            "coeff": str(args.coeff),
            "void": result.is_void,
            "facets": result.facet_vertex_lists(),
            "tor": _tor_payload(tor),
        }
        _print_json(payload)
    else:
        shape_str = "void complex" if result.is_void else "facets " + ", ".join(set_str(f) for f in result.facets)
        print("\n".join([f"{which} of {set_str(omega)}: {shape_str}", *_tor_lines(tor)]))
    return 0


def _cmd_maz(args) -> int:
    P = load_input(args.input)
    if args.preset and args.pairs:
        raise InputError("use either --pairs or --preset, not both")
    if args.preset == "s2s1":
        pairs = PairSpec.spheres_s2_s1(P.m)
    elif args.preset == "d2s1":
        pairs = PairSpec.disks_d2_s1(P.m)
    elif args.pairs:
        pairs = load_pairs(args.pairs, P.m)
    else:
        raise InputError("one of --pairs or --preset is required")
    _emit_series("maz", P.m, maz_cohomology(P, pairs, QQ), args.json)
    return 0


def _cmd_compress(args) -> int:
    P = load_input(args.input)
    omega = _parse_omega(args.omega, P.m)
    out = compress(P, omega)
    print(json.dumps({"m": out.m, "complement": out.member_vertex_lists()}))
    return 0


VERIFY_COEFFS: tuple[CoefficientSpec, ...] = (QQ, PrimeField(2), ZZ)


def _group_str(sig) -> str:
    rank, torsion = sig
    parts = ([f"Z^{rank}"] if rank else []) + [f"Z/{t}" for t in torsion]
    return "+".join(parts) if parts else "0"


def _sig_json(sig) -> dict:
    return {"rank": sig[0], "torsion": list(sig[1])}


def _render_verify_results(checked: int, blocks: list[tuple], as_json: bool, header: dict) -> int:
    names = [str(c) for c in VERIFY_COEFFS]
    failed = sum(not ok for *_, ok in blocks)
    if as_json:
        shown = [
            {
                "q": q,
                "sigma": list(vertices(sigma)),
                "groups": {
                    name: {"left": _sig_json(left), "right": _sig_json(right)}
                    for name, (left, right) in zip(names, pairs)
                },
                "ok": ok,
            }
            for q, sigma, pairs, ok in blocks
        ]
        payload = dict(header)
        payload.update({"coeffs": names, "blocks": shown, "checked": checked, "failed": failed})
        _print_json(payload)
    else:
        lines = []
        for q, sigma, pairs, ok in blocks:
            detail = ", ".join(
                f"{name}:{_group_str(left)}" + ("" if ok else f"|oracle:{_group_str(right)}")
                for name, (left, right) in zip(names, pairs)
            )
            lines.append(f"{'PASS' if ok else 'FAIL'} q={q} sigma={set_str(sigma)} [{detail}]")
        lines.append(
            f"checked {checked} (q, sigma) blocks over "
            + ", ".join(names)
            + f": {checked - failed} passed, {failed} failed"
        )
        print("\n".join(lines))
    return 4 if failed else 0


def _cmd_verify(args) -> int:
    if args.random and args.input:
        raise InputError("use either an input file or --random, not both")
    if args.random:
        if args.all_sigma:
            check_all_sigma(args.max_m)
        rng = random.Random(args.seed)
        checked = failed = 0
        for trial in range(args.trials):
            P = random_complement(rng, args.max_m, args.max_s)
            count, blocks = compare_blocks(P, VERIFY_COEFFS, args.all_sigma)
            bad = sum(not ok for *_, ok in blocks)
            checked += count
            failed += bad
            if not args.json:
                print(f"trial {trial}: m={P.m} s={P.s} P={P} {count} blocks {'FAIL' if bad else 'PASS'}")
        if args.json:
            print(
                json.dumps(
                    {
                        "command": "verify",
                        "mode": "random",
                        "trials": args.trials,
                        "seed": args.seed,
                        "checked": checked,
                        "failed": failed,
                    },
                    indent=2,
                )
            )
        else:
            print(f"random sweep: {args.trials} trials, {checked} blocks, {failed} failures")
        return 4 if failed else 0
    if not args.input:
        raise InputError("an input file is required unless --random is given")
    P = load_input(args.input)
    checked, blocks = compare_blocks(P, VERIFY_COEFFS, args.all_sigma)
    return _render_verify_results(checked, blocks, args.json, {"command": "verify", "mode": "file", "m": P.m})


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facetor",
        description="Exact bigraded Tor of face rings from simplicial complements, "
        "with moment-angle cohomology and an independent cohomological cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, coeff_default=None, coeff_parser=_parse_coeff):
        p.add_argument("input", help="JSON input document")
        if coeff_default is not None:
            p.add_argument(
                "--coeff",
                type=coeff_parser,
                default=coeff_parser(coeff_default),
                help="coefficients: q (rationals), z (integers), f:<p> (prime field)",
            )
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p_tor = sub.add_parser("tor", help="bigraded Tor table")
    add_common(p_tor, "q")
    p_tor.set_defaults(fn=_cmd_tor)

    p_zk = sub.add_parser("zk", help="Poincare polynomial of the moment-angle complex")
    add_common(p_zk)
    p_zk.set_defaults(fn=_cmd_zk)

    p_ring = sub.add_parser("ring", help="Tor basis and nonzero products")
    add_common(p_ring, "q", _parse_field_coeff)
    p_ring.set_defaults(fn=_cmd_ring)

    for which in ("star", "link"):
        p_sl = sub.add_parser(which, help=f"{which} of a face, with its Tor table")
        add_common(p_sl, "q")
        p_sl.add_argument("--omega", required=True, help="comma-separated vertices, e.g. 1,3")
        p_sl.set_defaults(fn=lambda args, w=which: _cmd_star_link(args, w))

    p_maz = sub.add_parser("maz", help="graded dimensions of a generalized moment-angle complex")
    add_common(p_maz)
    p_maz.add_argument("--pairs", help="JSON pair-spec document")
    p_maz.add_argument("--preset", choices=["s2s1", "d2s1"], help="built-in pair spec")
    p_maz.set_defaults(fn=_cmd_maz)

    p_comp = sub.add_parser("compress", help="remove a subset from every member")
    p_comp.add_argument("input", help="JSON input document")
    p_comp.add_argument("--omega", required=True, help="comma-separated vertices")
    p_comp.set_defaults(fn=_cmd_compress)

    p_ver = sub.add_parser("verify", help="cross-check Tor blocks against the cohomology oracle")
    p_ver.add_argument("input", nargs="?", help="JSON input document")
    p_ver.add_argument("--json", action="store_true", help="machine-readable output")
    p_ver.add_argument("--all-sigma", action="store_true", help="sweep every subset, not just supports")
    p_ver.add_argument("--random", action="store_true", help="randomized sweep instead of a file")
    p_ver.add_argument("--trials", type=_int_in(0), default=50)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--max-m", type=_int_in(1, MAX_AMBIENT), default=6)
    p_ver.add_argument("--max-s", type=_int_in(0, MAX_GENERATORS), default=4)
    p_ver.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # stdout's reader left; devnull takes the exit-time flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
