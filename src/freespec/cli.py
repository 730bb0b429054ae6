"""Command line interface.

Every subcommand prints a single JSON object to stdout (or ``--out FILE``).
Floats are rendered with ``%.17g`` so identical runs produce byte-identical
output. Exit codes: 0 on success, 2 for invalid input, 3 when a numerical
routine fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import extreme, feasibility, gallery, pencil, structure
from .errors import InputError, NumericalError


def _fmt(obj) -> str:
    """Serialize to JSON with deterministic %.17g floats."""
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if f != f or f in (float("inf"), float("-inf")):
            return json.dumps(str(f))
        out = "%.17g" % f
        return out
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_fmt(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        return "[" + ", ".join(_fmt(v) for v in seq) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write(args, payload: dict) -> None:
    text = _fmt(payload)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_entry(path, visible=None) -> gallery.GalleryEntry:
    """Read either a gallery-entry JSON or a bare tuple JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if isinstance(obj, dict) and "pencil" in obj:
        entry = gallery.GalleryEntry.from_json(obj)
    else:
        entry = gallery.GalleryEntry(name="", pencil=pencil.tuple_from_json(obj))
    if visible is not None:
        entry.visible_vars = visible
    return entry


def _add_common(p, tol=True, seed=True):
    if tol:
        p.add_argument("--tol", type=float, default=1e-8,
                       help="numerical tolerance (default 1e-8)")
    if seed:
        p.add_argument("--seed", type=int, default=0,
                       help="seed for all randomized steps (default 0)")
    p.add_argument("--out", type=str, default=None,
                   help="write the JSON verdict to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="freespec",
        description="extreme points of free spectrahedra and matrix convex "
                    "sets via dilations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="full extreme-point classification")
    p.add_argument("--pencil", required=True)
    p.add_argument("--point", required=True)
    _add_common(p, seed=False)

    p = sub.add_parser("member", help="spectrahedron membership")
    p.add_argument("--pencil", required=True)
    p.add_argument("--point", required=True)
    _add_common(p, seed=False)

    p = sub.add_parser("hull-member", help="matrix convex hull membership")
    p.add_argument("--generator", required=True)
    p.add_argument("--point", required=True)
    _add_common(p, seed=False)

    p = sub.add_parser("include", help="spectrahedron inclusion D_inner ⊆ D_outer")
    p.add_argument("--inner", required=True)
    p.add_argument("--outer", required=True)
    p.add_argument("--level", type=int, default=2,
                   help="max level for sampled counterexamples (default 2)")
    p.add_argument("--samples", type=int, default=40)
    _add_common(p)

    p = sub.add_parser("drop-member",
                       help="membership in a projected spectrahedron")
    p.add_argument("--pencil", required=True,
                   help="gallery-entry JSON (with visible_vars) or bare tuple")
    p.add_argument("--point", required=True)
    p.add_argument("--visible", type=int, default=None,
                   help="override the number of visible variables")
    _add_common(p, tol=False, seed=False)

    p = sub.add_parser("decompose", help="irreducible decomposition of a tuple")
    p.add_argument("--point", required=True)
    _add_common(p, seed=False)

    p = sub.add_parser("simplex-check",
                       help="free simplex recognition and normal form")
    p.add_argument("--pencil", required=True)
    _add_common(p)

    p = sub.add_parser("gallery", help="write a built-in model to JSON")
    p.add_argument("name", choices=sorted(gallery.GALLERY_NAMES))
    p.add_argument("--g", type=int, default=None, help="number of variables")
    p.add_argument("--a", type=float, default=None,
                   help="lift parameter for tv-screen (default 1.0)")
    _add_common(p, tol=False, seed=False)

    p = sub.add_parser("lift-one",
                       help="explicit boundary dilation for corank-one "
                            "wild-disk pairs")
    p.add_argument("--point", required=True, help="tuple JSON with two matrices")
    _add_common(p, seed=False)
    return ap


def _cmd_classify(args) -> dict:
    a = pencil.read_tuple(args.pencil)
    x = pencil.read_tuple(args.point)
    return extreme.classify(a, x, tol=args.tol).to_json()


def _cmd_member(args) -> dict:
    a = pencil.read_tuple(args.pencil)
    x = pencil.read_tuple(args.point)
    return pencil.membership(a, x, tol=args.tol).to_json()


def _cmd_hull_member(args) -> dict:
    omega = pencil.read_tuple(args.generator)
    x = pencil.read_tuple(args.point)
    return feasibility.hull_membership(omega, x, tol=args.tol).to_json()


def _cmd_include(args) -> dict:
    inner = pencil.read_tuple(args.inner)
    outer = pencil.read_tuple(args.outer)
    rep = feasibility.inclusion(inner, outer, level_cap=args.level,
                                samples=args.samples, seed=args.seed, tol=args.tol)
    return rep.to_json()


def _cmd_drop_member(args) -> dict:
    entry = _load_entry(args.pencil, visible=args.visible)
    if entry.visible_vars is None:
        raise InputError("pencil JSON has no visible_vars; pass --visible")
    x = pencil.read_tuple(args.point)
    return feasibility.spectrahedrop_membership(entry.pencil, entry.visible_vars, x).to_json()


def _cmd_decompose(args) -> dict:
    x = pencil.read_tuple(args.point)
    return structure.decompose_irreducibles(x, tol=args.tol).to_json()


def _cmd_simplex_check(args) -> dict:
    a = pencil.read_tuple(args.pencil)
    rep = structure.is_free_simplex(a, tol=args.tol, seed=args.seed)
    out = {"simplex": rep.to_json(), "normal_form": None}
    if rep.is_simplex:
        nf = structure.simplex_normal_form(a, tol=args.tol, seed=args.seed)
        out["normal_form"] = nf.to_json()
    return out


def _cmd_gallery(args) -> dict:
    entry = gallery.build(args.name, g=args.g, a=args.a)
    return entry.to_json()


def _cmd_lift_one(args) -> dict:
    pair = pencil.read_tuple(args.point)
    if pair.shape[0] != 2:
        raise InputError("lift-one expects a tuple with exactly two matrices")
    rep = gallery.lift_one(pair[0], pair[1], tol=args.tol)
    return rep.to_json()


_COMMANDS = {
    "classify": _cmd_classify,
    "member": _cmd_member,
    "hull-member": _cmd_hull_member,
    "include": _cmd_include,
    "drop-member": _cmd_drop_member,
    "decompose": _cmd_decompose,
    "simplex-check": _cmd_simplex_check,
    "gallery": _cmd_gallery,
    "lift-one": _cmd_lift_one,
}


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call: parsing
    reads it and writes only the fresh namespace it returns."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        payload = _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON input ({exc})", file=sys.stderr)
        return 2
    _write(args, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
