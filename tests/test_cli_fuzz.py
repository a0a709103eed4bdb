"""Fuzzing of the command line: every subcommand, in process.

Whatever the arguments, `main` returns one of the documented exit codes (or
argparse exits with 2) and no other exception escapes. Inputs are random JSON
shapes, deep nesting, integers past the interpreter's int-to-str digit limit,
non-finite and overflowing numbers, and bad or missing flags. The work per
call is kept small: Mukai rank at most 3 in well-formed models, `--bound` at
most 2, short `d`, `t` and `n` ranges.
"""

import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from mukai_entropy.cli import main

EXIT_CODES = {0, 2, 3, 4}
# each call is milliseconds of work; the bound only catches a runaway one
CALL_BOUND_S = 5.0

DEEP_LIST = "[" * 5000 + "]" * 5000
DEEP_DICT = '{"a":' * 5000 + "1" + "}" * 5000
# an integer literal one digit past the interpreter's int-to-str limit
HUGE = "9" * (sys.get_int_max_str_digits() + 1)
HUGE_TOKEN = "HUGE-INTEGER"


class FileArg(str):
    """JSON text to be written to a file and passed as its path."""


class OutArg(str):
    """An --output target under the work directory; "." is the directory."""


def _render(obj) -> str:
    """JSON text of obj; HUGE_TOKEN strings become the huge integer."""
    text = json.dumps(obj)  # inf and nan come out as Infinity and NaN
    return text.replace(json.dumps(HUGE_TOKEN), HUGE)


small_ints = st.integers(-6, 6)
numbers = st.one_of(
    small_ints,
    small_ints,
    st.just(10 ** 400),
    st.just(HUGE_TOKEN),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
)
json_leaves = st.one_of(
    st.none(), numbers, st.text(max_size=4),
)
json_shapes = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
        st.sampled_from(["picard_rank", "ns_gram", "r", "c", "m", "matrix",
                         "x"]),
        kids, max_size=4,
    ),
    max_leaves=10,
)


def square(entries, max_n):
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n)
    )


# Picard rank 1 is Mukai rank 3; a Gram is at most 1 x 1, so a
# picard_rank of 2 is refused
models = st.one_of(
    st.integers(1, 5).map(
        lambda d: {"picard_rank": 1, "ns_gram": [[2 * d]]}
    ),
    st.fixed_dictionaries({
        "picard_rank": st.one_of(st.integers(0, 2), json_leaves),
        "ns_gram": st.one_of(square(st.integers(-4, 8), 1), json_shapes),
    }),
)
# (1, 0, 1) is spherical in every rank-one model
vectors = st.one_of(
    st.just({"r": 1, "c": [0], "m": 1}),
    st.fixed_dictionaries({
        "r": numbers,
        "c": st.lists(numbers, max_size=2),
        "m": numbers,
    }),
)
matrices = st.one_of(
    square(st.integers(-20, 20), 3),
    square(numbers, 3),
    square(numbers, 3).map(lambda m: {"matrix": m}),
)


def json_arg(structured):
    """A JSON argument: structured or random, inline or from a file."""
    text = st.one_of(
        structured.map(_render),
        structured.map(_render),
        json_shapes.map(_render),
        st.sampled_from([DEEP_LIST, DEEP_DICT, "[", "{}", "[]",
                         "no/such/file.json"]),
    )
    return st.tuples(text, st.booleans()).map(
        lambda pair: FileArg(pair[0]) if pair[1] else pair[0]
    )


bad_numbers = st.sampled_from(
    ["inf", "nan", "-inf", "1e400", "x", "", "1.5", "-0", HUGE]
)


def int_flag(lo, hi, extra=()):
    return st.one_of(
        st.integers(lo, hi).map(str),
        st.integers(lo, hi).map(str),
        st.integers(lo, hi).map(str),
        st.sampled_from(list(extra)) if extra else st.nothing(),
        bad_numbers,
    )


fractions = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["1/3", "-5/2", "0", "1/0", "1e400", "1e-400", "1e5000",
                     "-1e5000"]),
    bad_numbers,
)
steps = st.one_of(
    st.sampled_from(["1/8", "1/4", "1/2", "1", "2", "0", "-1", "1e400",
                     "1e-400", "1e5000", "-1e5000"]),
    bad_numbers,
)
tolerances = st.one_of(
    st.sampled_from(["1e-9", "0.5", "1e-300", "1e-320", "5e-324", "0", "-1"]),
    bad_numbers,
)

SUBCOMMANDS = {
    "lattice-check": [("", json_arg(models))],
    "pair": [("--lattice", json_arg(models)), ("--v", json_arg(vectors)),
             ("--w", json_arg(vectors))],
    "twist": [("--lattice", json_arg(models)), ("--s", json_arg(vectors))],
    "phi-h": [("--d", int_flag(-1, 20, ["1" + "0" * 400])),
              ("--full", st.just(None)),
              ("--lattice", json_arg(models))],
    "char-poly": [("--matrix", json_arg(matrices))],
    "spectral-radius": [("--matrix", json_arg(matrices)),
                        ("--tol", tolerances)],
    # d near the cap: a short sweep there, or a refusal of the long one
    "gy-gap": [("--d-min", int_flag(-1, 40, ["999990", "1000001"])),
               ("--d-max", int_flag(-1, 60, ["1000000", "1000001"]))],
    "entropy-curve": [
        ("--spherical-dim", int_flag(-1, 6, ["1000000"])),
        ("--complement", st.sampled_from(["yes", "no", "unknown", "maybe"])),
        ("--t-min", fractions), ("--t-max", fractions), ("--step", steps),
    ],
    "ext-recursion": [
        ("--d", int_flag(-1, 20, ["1" * 3001])),
        ("--i", int_flag(-2, 5)), ("--k", int_flag(-2, 5)),
        ("--n-max", int_flag(-1, 8, ["10" + "0" * 4000])),
    ],
    "complement-search": [("--lattice", json_arg(models)),
                          ("--s", json_arg(vectors)),
                          ("--bound", int_flag(-1, 2))],
}
OPTIONAL = {("phi-h", "--full"), ("phi-h", "--lattice")}
# dropping --bound would search up to the default bound 10
KEEP = {("complement-search", "--bound")}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = []
    if draw(st.integers(0, 9)) == 9:
        argv += ["--output", draw(st.sampled_from(
            [OutArg("out"), OutArg("missing/out"), OutArg(".")]))]
    argv.append(command)
    for flag, values in SUBCOMMANDS[command]:
        if (command, flag) in OPTIONAL and draw(st.booleans()):
            continue
        if (command, flag) not in KEEP and draw(st.integers(0, 19)) == 19:
            continue  # a required flag goes missing
        if flag:
            argv.append(flag)
        value = draw(values)
        if value is not None:
            argv.append(value)
    if draw(st.integers(0, 19)) == 19:
        argv += draw(st.sampled_from([["--nope"], ["--d", "1"], ["extra"]]))
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


def _materialise(argv, workdir):
    """argv as strings, with FileArg and OutArg turned into paths."""
    out = []
    for i, item in enumerate(argv):
        if isinstance(item, FileArg):
            path = workdir / f"arg{i}.json"
            path.write_text(item, encoding="utf-8")
            item = path
        elif isinstance(item, OutArg):
            item = workdir / item
        out.append(str(item))
    return out


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
@example(argv=["char-poly", "--matrix", DEEP_LIST])
@example(argv=["char-poly", "--matrix", FileArg(DEEP_LIST)])
@example(argv=["pair", "--lattice", '{"picard_rank":1,"ns_gram":[[4]]}',
               "--v", DEEP_DICT, "--w", '{"r":1,"c":[0],"m":1}'])
@example(argv=["--output", OutArg("."), "phi-h", "--d", "2"])
def test_cli_exits_with_a_documented_code(workdir, argv):
    argv = _materialise(argv, workdir)
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the flags
            code = exc.code
    assert code in EXIT_CODES, argv
    assert time.perf_counter() - start < CALL_BOUND_S, argv
