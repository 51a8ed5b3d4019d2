"""Property test over generated command lines: every one ends in a documented exit code.

Each flag has valid values and hostile ones: NaN, infinities, huge, negative,
zero and subnormal numbers, unknown names, and output paths in a missing
directory or naming a directory.  A command line carries at most two hostile
values, so that most get past parsing and reach the code behind it.  Sizes
stay small: huge sizes are a memory question, not a parsing one.  Half the
command lines run or sweep an expanding problem from a start at the edge of
overflow, a case that needs several flags to agree and that uniform draws
seldom reach.
"""

import io
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from enrichedfp.cclass import builtin_triples
from enrichedfp.cli import EXIT_CONFIG, EXIT_NOT_CONVERGED, EXIT_OK, EXIT_VIOLATED, main
from enrichedfp.problems import builtin_problems

NUMBERS = st.sampled_from(["-1", "0", "nan", "inf", "-inf", "1e308", "-1e308", "-nan", "-1e-3",
                           "5e-324"])


def _one_of(valid, hostile):
    """A flag: its valid values, and its hostile ones."""
    return st.sampled_from(valid), st.sampled_from(hostile)


def _number(*valid):
    return st.sampled_from(valid), NUMBERS


def _size(cap):
    """An iteration, pair or grid count no larger than ``cap``."""
    return st.integers(min_value=1, max_value=cap).map(str), NUMBERS


def _csv(*valid):
    """A comma-separated list of one to three numbers."""
    return (st.lists(st.sampled_from(valid), min_size=1, max_size=3).map(",".join),
            st.lists(st.sampled_from(valid) | NUMBERS, min_size=1, max_size=3).map(",".join))


def _random_affine(dims, caps, seeds):
    return st.builds("random-affine:{}:{}:{}".format, dims, caps, seeds)


PROBLEM = (
    st.sampled_from([p.name for p in builtin_problems()])
    | _random_affine(st.integers(1, 8), st.sampled_from(["0.5", "0.9"]), st.sampled_from("37")),
    st.just("no-such-problem")
    | _random_affine(st.sampled_from(["-1", "0", "nan", "1e308"]), st.just("0.5"), st.just("3"))
    | _random_affine(st.just("2"), NUMBERS, st.just("3"))
    | _random_affine(st.just("2"), st.just("0.5"), NUMBERS),
)
OUTPUT = _one_of(["out.txt"], ["missing/dir/out.txt", "."])
NORM = _one_of(["l1", "l2", "linf"], ["l3"])
SCHEME = _one_of(["picard", "schaefer", "jungck-schaefer"], ["newton"])
TRIPLE = _one_of([t.name for t in builtin_triples()], ["no-such-triple"])
# 1e308 overflows at once under an expanding map, before any residual exists
START = _csv("0", "1.5", "-2", "1e308")
BOX = (st.tuples(st.sampled_from(["-10", "-1"]), st.sampled_from(["1", "10"])),
       st.tuples(NUMBERS | st.just("-10"), NUMBERS | st.just("10")))
FLAG = (None, None)

# per command: its required flags, then its optional ones
COMMANDS = {
    "run": (
        {"--problem": PROBLEM, "--max-iter": _size(1000)},
        {"--scheme": SCHEME, "--c": _number("0.5", "1"), "--delta": _number("1", "0.25"),
         "--tol": _number("1e-10", "1e-3"), "--divergence-bound": _number("1e12", "10"),
         "--norm": NORM, "--start": START, "--trace": OUTPUT, "--summary": OUTPUT,
         "--no-coords": FLAG},
    ),
    "sweep": (
        {"--problem": PROBLEM, "--max-iter": _size(1000), "--c-values": _csv("0.5", "1", "0.1")},
        {"--scheme": SCHEME, "--tol": _number("1e-10", "1e-3"), "--norm": NORM,
         "--start": START, "--out": OUTPUT},
    ),
    "verify-contraction": (
        {"--problem": PROBLEM, "--pairs": _size(64),
         "--variant": _one_of(["hardy-rogers", "jungck-hardy-rogers", "cclass-hardy-rogers",
                               "cclass-jungck-hardy-rogers"], ["kannan"])},
        {"--triple": TRIPLE, "--delta": _number("0.5", "1"), "--c1": _number("0.1", "0.6", "1"),
         **{f"--c{i}": _number("0.1", "0.2") for i in range(2, 6)},
         "--box": BOX, "--seed": _number("5", "20261017"), "--tol": _number("1e-9", "0.1"),
         "--norm": NORM, "--report": OUTPUT},
    ),
    "verify-cclass": (
        {"--triple": TRIPLE, "--grid-points": _size(64)},
        {"--grid-upper": _number("10", "2.5"), "--tol": _number("1e-9", "0.1"),
         "--report": OUTPUT},
    ),
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    required, optional = COMMANDS[command]
    flags = {**required, **{k: v for k, v in optional.items() if draw(st.booleans())}}
    hostile = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    argv = [command]
    for name, (valid, bad) in flags.items():
        argv.append(name)
        if valid is not None:
            value = draw(bad if name in hostile else valid)
            argv += value if isinstance(value, tuple) else [value]
    return argv


# an expanding problem with a scheme it runs under; from 1e308 the run overflows at
# once, before its first residual
EXPANDING = st.sampled_from([("doubling", "picard"), ("doubling", "schaefer"),
                             ("jungck-linear", "jungck-schaefer")])


@st.composite
def overflowing_lines(draw):
    command = draw(st.sampled_from(["run", "sweep"]))
    problem, scheme = draw(EXPANDING)
    required, optional = COMMANDS[command]
    flags = {**required, **optional}
    argv = [command, "--problem", problem, "--scheme", scheme, "--start", "1e308"]
    for name in ("--max-iter", "--c-values", "--c", "--tol", "--norm"):
        if name in required or (name in optional and draw(st.booleans())):
            argv += [name, draw(flags[name][0])]
    return argv


# 300 examples under the default profile, scaled with the loaded profile's budget
@settings(max_examples=3 * settings.default.max_examples, deadline=None)
@given(argv=command_lines() | overflowing_lines())
def test_any_command_line_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
    assert code in (EXIT_OK, EXIT_NOT_CONVERGED, EXIT_VIOLATED, EXIT_CONFIG), argv
    assert "Traceback" not in err.getvalue(), argv
