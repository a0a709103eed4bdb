"""Command-line front end: lattice ingestion, subcommands, CSV/JSON emission.

Output is deterministic byte for byte: floats are printed with 12 significant
digits, exact rationals as p/q strings, and JSON keys keep a fixed order.
Exit codes: 0 success, 2 input or invariant violation, 3 certification
failure, 4 search exhausted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from ._linalg import short_repr
from .errors import (
    CertificationError,
    LatticeInputError,
    SearchExhaustedError,
)

DEFAULT_TOLERANCE = 1e-9
TOLERANCE_ENV = "MUKAI_ENTROPY_TOL"
# entropy-curve and gy-gap tables longer than this are refused instead of
# tabulated, and so are entropy-curve grids estimated to print more characters
# than MAX_CURVE_CHARS
MAX_CURVE_ROWS = 100_000
MAX_CURVE_CHARS = 10 ** 7
# gy-gap refuses d past this: a row trial-divides the odd parts of d and
# d - 4 to their cube roots, about 0.015 ms per row near the cap
MAX_GY_D = 10 ** 6


def _fmt_float(x: float) -> str:
    return f"{x:.12g}"


def _int_digit_limit() -> int:
    # with no limit (0: PYTHONINTMAXSTRDIGITS=0, or Python 3.10 before 3.10.7,
    # which lacks the call) the guards below keep the default limit of 4300,
    # sys.int_info.default_max_str_digits
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _fmt_exact(x) -> str:
    """str of an int or Fraction; past the interpreter's int-to-str digit
    limit (kept: it guards against quadratic-time conversion) an input error.
    """
    try:
        return str(x)
    except ValueError as exc:
        raise LatticeInputError(
            f"result has more than {_int_digit_limit()} digits"
        ) from exc


def _dump_json(obj) -> str:
    """Deterministic JSON with floats at 12 significant digits."""
    if isinstance(obj, dict):
        items = ",".join(
            f"{json.dumps(str(k))}: {_dump_json(v)}" for k, v in obj.items()
        )
        return "{" + items + "}"
    if isinstance(obj, list):
        return "[" + ",".join(_dump_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, int):
        return _fmt_exact(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _json_int(literal: str) -> int:
    # refused before int() runs, which is quadratic in the digit count and,
    # with no int-to-str limit, unbounded
    limit = _int_digit_limit()
    if len(literal) - literal.startswith("-") > limit:
        raise LatticeInputError(f"integer literal over {limit} digits")
    return int(literal)


def _load_json_arg(value: str):
    """Inline JSON when the argument looks like a literal, else a file path.

    An integer literal past the digit limit, or nesting past the
    interpreter's recursion limit, is an input error too.
    """
    text = value.strip()
    where = "inline JSON"
    try:
        if not text.startswith(("{", "[")):
            where = f"JSON in {value}"
            with open(value, encoding="utf-8") as handle:
                text = handle.read()
        return json.loads(text, parse_int=_json_int)
    except OSError as exc:
        raise LatticeInputError(f"cannot read {value}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise LatticeInputError(f"bad {where}: {exc}") from exc


def _load_model(path: str):
    from .lattice import model_from_dict
    return model_from_dict(_load_json_arg(path))


def _load_vector(value: str):
    from .lattice import vector_from_dict
    return vector_from_dict(_load_json_arg(value))


def _parse_fraction(text: str) -> Fraction:
    from fractions import Fraction
    # Fraction builds 10**e for an exponent e, so one past the digit limit
    # is refused first; a malformed exponent is left to Fraction to refuse
    limit = _int_digit_limit()
    try:
        too_big = abs(int(text.lower().partition("e")[2])) > limit
    except ValueError:
        too_big = False
    if too_big:
        raise LatticeInputError(
            f"bad rational number {short_repr(text)}: exponent over {limit}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise LatticeInputError(
            f"bad rational number {short_repr(text)}") from exc


def _default_tolerance() -> float:
    raw = os.environ.get(TOLERANCE_ENV)
    if raw is None:
        return DEFAULT_TOLERANCE
    try:
        tol = float(raw)
    except ValueError as exc:
        raise LatticeInputError(
            f"{TOLERANCE_ENV} must be a float, got {short_repr(raw)}"
        ) from exc
    return tol


def _csv(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


# --- subcommand handlers -----------------------------------------------------
# Each handler imports what it runs when it runs, so a call compiles and
# executes only the modules of its own subcommand.

def _cmd_lattice_check(args) -> str:
    from .lattice import model_to_dict
    model = _load_model(args.gram)
    # the model enforces NS signature (1, rho-1); H^0 + H^4 adds (1, 1)
    print(
        f"ok: NS signature (1, {model.picard_rank - 1}), "
        f"Mukai signature (2, {model.picard_rank})",
        file=sys.stderr,
    )
    return _dump_json(model_to_dict(model)) + "\n"


def _cmd_pair(args) -> str:
    from .lattice import euler_pairing, mukai_pairing
    model = _load_model(args.lattice)
    v = _load_vector(args.v)
    w = _load_vector(args.w)
    out = {
        "mukai": mukai_pairing(model, v, w),
        "euler": euler_pairing(model, v, w),
    }
    return _dump_json(out) + "\n"


def _cmd_twist(args) -> str:
    from .isometries import isometry_to_dict, spherical_twist_action
    model = _load_model(args.lattice)
    s = _load_vector(args.s)
    action = spherical_twist_action(model, s)
    return _dump_json(isometry_to_dict(action)) + "\n"


def _cmd_phi_h(args) -> str:
    from .isometries import (
        isometry_to_dict,
        polarized_sublattice_basis,
        restrict_to_sublattice,
        twist_tensor_action,
    )
    from .lattice import rank_one_model
    d = args.d
    if args.lattice is not None:
        model = _load_model(args.lattice)
        if model.ns_gram[0][0] != 2 * d:
            raise LatticeInputError(
                f"--d {d} does not match the model polarization degree "
                f"{model.ns_gram[0][0]} / 2"
            )
    else:
        model = rank_one_model(d)
    action = twist_tensor_action(model)
    if args.full:
        return _dump_json(isometry_to_dict(action)) + "\n"
    restricted = restrict_to_sublattice(action, polarized_sublattice_basis(model))
    return _dump_json({"matrix": [list(row) for row in restricted]}) + "\n"


def _cmd_char_poly(args) -> str:
    from .spectral import char_poly, charpoly_to_dict, matrix_from_obj
    matrix = matrix_from_obj(_load_json_arg(args.matrix))
    return _dump_json(charpoly_to_dict(char_poly(matrix))) + "\n"


def _cmd_spectral_radius(args) -> str:
    from .spectral import matrix_from_obj, radius_to_dict, spectral_radius
    matrix = matrix_from_obj(_load_json_arg(args.matrix))
    tol = args.tol if args.tol is not None else _default_tolerance()
    radius = spectral_radius(matrix, tol)
    return _dump_json(radius_to_dict(radius)) + "\n"


def _cmd_gy_gap(args) -> str:
    from .entropy import gy_gap
    if args.d_max < args.d_min:
        raise LatticeInputError("need d-min <= d-max")
    if args.d_max > MAX_GY_D:
        raise LatticeInputError(f"--d-max must be at most {MAX_GY_D}")
    if args.d_max - args.d_min + 1 > MAX_CURVE_ROWS:
        raise LatticeInputError(
            f"sweep has more than {MAX_CURVE_ROWS} rows; narrow the d range"
        )
    rows = []
    for d in range(args.d_min, args.d_max + 1):
        report = gy_gap(d)
        if not report.certified:
            raise CertificationError(f"gap positivity failed at d={d}")
        rows.append([
            str(d),
            _fmt_float(report.lower_bound),
            _fmt_float(math.exp(report.log_rho)),
            _fmt_float(report.log_rho),
            _fmt_float(report.gap),
        ])
    return _csv(["d", "log(d+2)", "rho", "log_rho", "gap"], rows)


def _cmd_entropy_curve(args) -> str:
    from .entropy import twist_entropy_curve
    curve = twist_entropy_curve(args.spherical_dim, args.complement == "yes")
    t_min = _parse_fraction(args.t_min)
    t_max = _parse_fraction(args.t_max)
    step = _parse_fraction(args.step)
    if step <= 0 or t_max < t_min:
        raise LatticeInputError("need t-min <= t-max and step > 0")
    n_rows = (t_max - t_min) // step + 1
    if n_rows > MAX_CURVE_ROWS:
        raise LatticeInputError(
            f"grid has more than {MAX_CURVE_ROWS} rows; raise --step")
    # A row prints t and (1 - dim) t, and t = t_min + k * step has about the
    # bits of step plus those of the larger of t_min, t_max
    lo, hi, st = (x.numerator.bit_length() + x.denominator.bit_length()
                  for x in (t_min, t_max, step))
    row_bits = 2 * (max(lo, hi) + st) + args.spherical_dim.bit_length()
    if n_rows * (math.ceil(row_bits * math.log10(2)) + 16) > MAX_CURVE_CHARS:
        raise LatticeInputError(
            f"grid output over {MAX_CURVE_CHARS} characters; raise --step")
    rows = []
    for k in range(n_rows):
        t = t_min + k * step
        piece = curve.piece_at(t)
        rows.append([
            _fmt_exact(t),
            _fmt_exact(piece.value_at(t)),
            "proven" if piece.proven else "unproven",
        ])
    return _csv(["t", "h_t", "proven"], rows)


def _cmd_ext_recursion(args) -> str:
    from .entropy import ext_recursion_table, ext_top_dim
    d, i, k, n_max = args.d, args.i, args.k, args.n_max
    limit = _int_digit_limit()
    if min(d, i, k, n_max + 1) >= 1:
        # Refused before any row is built: row n_max's top dimension
        # h0(i+1) h0(1)^(n_max-1) h0(k) has more than limit digits from
        # 4 * limit bits up, and below that it is cheap to compute and try.
        if ((n_max - 1) * ((d + 2).bit_length() - 1) >= 4 * limit
                or len(_fmt_exact(ext_top_dim(n_max, i, k, d))) > limit):
            raise LatticeInputError(f"--n-max {n_max}: over {limit} digits")
    table = ext_recursion_table(d, i, k, n_max)
    rows = [
        [_fmt_exact(x) for x in (r.n, r.top_dim, r.growth_bound, r.chi)]
        for r in table.rows
    ]
    return _csv(["n", "top_dim", "growth_bound", "chi"], rows)


def _cmd_complement_search(args) -> str:
    from .orthosearch import find_positive_orthogonal, search_report
    model = _load_model(args.lattice)
    s = _load_vector(args.s)
    v = find_positive_orthogonal(model, s, args.bound)
    return _dump_json(search_report(model, v)) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mukai-entropy",
        description=(
            "Exact Mukai-lattice computations: pairings, induced isometries, "
            "certified spectral radii, entropy curves and orthogonal-class "
            "search."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice-check", help="validate a lattice model JSON")
    p.add_argument("gram", help="model JSON file or inline JSON")
    p.set_defaults(handler=_cmd_lattice_check)

    p = sub.add_parser("pair", help="Mukai and Euler pairing of two vectors")
    p.add_argument("--lattice", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--w", required=True)
    p.set_defaults(handler=_cmd_pair)

    p = sub.add_parser("twist", help="isometry induced by a spherical twist")
    p.add_argument("--lattice", required=True)
    p.add_argument("--s", required=True)
    p.set_defaults(handler=_cmd_twist)

    p = sub.add_parser(
        "phi-h",
        help="twist-tensor action for polarization degree d "
             "(rank-3 matrix, or the full isometry with --full)",
    )
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--full", action="store_true")
    p.add_argument("--lattice")
    p.set_defaults(handler=_cmd_phi_h)

    p = sub.add_parser("char-poly", help="exact characteristic polynomial")
    p.add_argument("--matrix", required=True)
    p.set_defaults(handler=_cmd_char_poly)

    p = sub.add_parser("spectral-radius", help="certified spectral radius")
    p.add_argument("--matrix", required=True)
    p.add_argument("--tol", type=float)
    p.set_defaults(handler=_cmd_spectral_radius)

    p = sub.add_parser(
        "gy-gap", help="entropy lower bound versus lattice radius, CSV sweep"
    )
    p.add_argument("--d-min", type=int, required=True)
    p.add_argument("--d-max", type=int, required=True)
    p.set_defaults(handler=_cmd_gy_gap)

    p = sub.add_parser("entropy-curve", help="twist entropy curve on a grid")
    p.add_argument("--spherical-dim", type=int, required=True)
    p.add_argument("--complement", choices=["yes", "no", "unknown"],
                   required=True)
    p.add_argument("--t-min", required=True)
    p.add_argument("--t-max", required=True)
    p.add_argument("--step", required=True)
    p.set_defaults(handler=_cmd_entropy_curve)

    p = sub.add_parser("ext-recursion", help="Ext growth table, CSV")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(handler=_cmd_ext_recursion)

    p = sub.add_parser(
        "complement-search",
        help="positive orthogonal class with non-square doubled square",
    )
    p.add_argument("--lattice", required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--bound", type=int, default=10)
    p.set_defaults(handler=_cmd_complement_search)

    parser.add_argument("--output", help="write to a file instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.handler(args)
    except LatticeInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 3
    except SearchExhaustedError as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return 4
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
