"""The command line contract under generated and junk arguments.

Every call of cli.main must end in exit 0, 2 or 3 (argparse's own exit
through SystemExit counts, with its code), raise nothing else, and write
less than 1 MB to stdout.  Arguments mix well-formed values, including
--r denominators up to 10^12, exponents far beyond Python's digit limit,
convert --tb/--rot beyond their bound of 10^12, obstruction --g of any
size, and witness g, --count and --max-base up to and past their bounds
(10^12, 100, 10^6), with junk.  A sweep range is either a few values
wide or reaches past the sweep's caps (250,000 points, 20,000 (g, alpha)
blocks), so every grid is refused or small unless another range is empty.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from contactsurgery.cli import main

OUTPUT_LIMIT = 1 << 20
BIG = 10**12


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


# never an int, so it cannot smuggle a large g or count past argparse
junk = st.sampled_from(
    ["", "abc", "--", "-", "1/0", "0/0", "1//2", "1/2/3", "nan", "inf", "1.5", "..",
     "1..", "..2", "2g", "2g+", "a..b", "5-7", ",", "3/", "/3", "0x10", "1e5000",
     "-1e5000", "1e-5000", "1e100000000", "-1E-1_000_000_000", "½", "٣"]
) | st.text(max_size=8).filter(lambda t: not _is_int(t))


def _int(low: int, high: int):
    return st.integers(low, high).map(str) | junk


def _beyond(bound: int):
    """Integers past -bound..bound, up to the 4,300 digits argparse reads."""
    return st.builds(
        lambda sign, x: str(sign * x), st.sampled_from((1, -1)), st.integers(bound + 1, 10**4299)
    )


def _rational(max_denominator: int = BIG):
    fraction = st.builds(
        lambda p, q: f"{p}/{q}",
        st.integers(-BIG, BIG),
        st.integers(-2, max_denominator),
    )
    return fraction | st.integers(-BIG, BIG).map(str) | junk


def _range(low: int, high: int):
    bound = st.integers(low, high)
    return st.builds(lambda a, b: f"{a}..{b}", bound, bound) | junk


def _wide_range(length: int):
    """Ranges 1..b of at least `length` values, up to 4,300-digit b."""
    return st.integers(length, 10**4299).map(lambda b: f"1..{b}")


def _flags(**options):
    """One optional value per flag, written in --flag=value form."""
    return st.fixed_dictionaries({}, optional=options).map(
        lambda chosen: [f"--{flag.replace('_', '-')}={value}" for flag, value in chosen.items()]
    )


COMMANDS = {
    "convert": _flags(
        r=_rational(),
        tb=_int(-BIG, BIG) | _beyond(BIG),
        rot=_int(-BIG, BIG) | _beyond(BIG),
    ),
    "report": _flags(
        g=_int(-1, 6),
        n=_int(-1, 10**6),
        alpha=_int(-1, BIG),
        sign=st.sampled_from(["+", "-", "0", ""]),
        r=_int(-BIG, BIG) | _int(-20, 20),
    ),
    "sweep": st.tuples(
        _flags(
            g_range=_range(-1, 3) | _wide_range(20_001),
            n_range=_range(-1, 4) | _wide_range(125_001),
            alpha_range=_range(-1, 12) | _wide_range(20_001),
        ),
        st.sampled_from([[], ["--mu-only"]]),
    ).map(lambda parts: parts[0] + parts[1]),
    "obstruction": _flags(g=_int(-3, 800) | _int(-3, 10**4299)),
    "witness": _flags(
        g=_int(-1, 6) | _int(-1, BIG) | _beyond(BIG),
        count=_int(-1, 100) | _beyond(100),
        max_base=_int(-1, 10**6) | _beyond(10**6),
    ),
    "normalize": _flags(
        g=_int(-1, 5),
        n=_int(-BIG, BIG),
        pairs=st.lists(
            st.builds(lambda a, b: f"{a}/{b}", st.integers(-BIG, BIG), st.integers(-BIG, BIG)),
            max_size=4,
        ).map(",".join)
        | junk,
    ),
    "cf": _flags(
        r=_rational(),
        entries=st.lists(st.integers(-BIG, BIG).map(str), min_size=1, max_size=20).map(",".join)
        | junk,
    ),
}


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue()


def _check(argv: list[str]) -> None:
    code, out = _run(argv)
    assert code in (0, 2, 3), (argv, code)
    assert len(out.encode("utf-8")) < OUTPUT_LIMIT, (argv, len(out))


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(sorted(COMMANDS)).flatmap(
        lambda name: st.tuples(st.just(name), COMMANDS[name], st.booleans())
    )
)
def test_subcommands(case):
    name, options, as_json = case
    _check([name, *options] + (["--json"] if as_json else []))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            ["convert", "report", "sweep", "obstruction", "witness", "normalize", "cf", "rep",
             "--r", "--g", "--json", "-h", "--help", "--he", "--count", "--entries", "--pairs",
             "-4/3", "--r=-4/3", "1", "0", "+"]
        )
        | junk,
        max_size=6,
    )
)
def test_junk_argument_vectors(argv):
    _check(argv)


def test_extreme_chains_stay_below_the_output_limit():
    # the longest chain a positive coefficient gives (3000 (+1)-pushoffs,
    # 2998 (-1)-pushoffs) with 13-digit tb and rot
    argv = ["convert", "--r=2999/8994002", f"--tb={-BIG}", f"--rot={-BIG}", "--json"]
    code, out = _run(argv)
    assert code == 0
    assert out.count('"contact_coefficient"') == 5998
    assert len(out.encode("utf-8")) < OUTPUT_LIMIT


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["tb", "rot"]), _beyond(BIG), st.booleans())
def test_tb_rot_beyond_the_bound_exit_2(flag, value, as_json):
    argv = ["convert", "--r=2999/8994002", f"--{flag}={value}"]
    code, out = _run(argv + (["--json"] if as_json else []))
    assert (code, out) == (2, "")
