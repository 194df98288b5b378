"""The sum spec reader: the plain-spec fast path against the line loop.

On every input the fast path either returns exactly what the line loop
returns (bitwise arrays, same independence flag) or hands the file over to
the loop, which alone knows the full grammar and writes the error messages.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subgauss.cli as cli_module

BOM = "\ufeff"


def _handle(text: str) -> io.TextIOWrapper:
    # the same decoding and newline translation as the reader's open()
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8-sig")


def _bits(parsed):
    coeffs, probs, independent = parsed
    return coeffs.tobytes(), probs.tobytes(), independent


def _both(text: str):
    """(fast path result or None, loop result or None if it raised)."""
    fast = cli_module._read_plain_spec(_handle(text))
    try:
        loop = cli_module._read_spec_lines(_handle(text), "spec")
    except cli_module._UsageError:
        loop = None
    if fast is not None:
        assert loop is not None
        assert _bits(fast) == _bits(loop)
    return fast, loop


# (spec text, whether the fast path takes it)
EDGE_CASES = [
    ("1_0 0.5\n", True),
    (" inf  0.5 \n", True),
    ("nan 0.5\n", True),
    ("Infinity -Infinity\n", True),
    ("+1e5 .5\n", True),
    ("5. 1e400\n", True),
    ("-0.0 -0\n", True),
    ("0x10 0.5\n", False),
    ("1\t0.5\n", True),
    ("1\x0b0.5\n", True),
    ("1\x0c0.5\n", True),
    ("1\x1c0.5\n2\x1d0.25\n3\x1e0.75\n4\x1f0.125\n", True),
    ("1\xa00.5\n", False),
    ("\u0661 0.5\n", False),
    ("1 0.5\x85\n", False),
    ("1 0.5\r\n2 0.25\r\n", True),
    ("1 0.5\r2 0.25\r", True),
    ("1 0.5\r\n2 0.25\r3 0.125\n", True),
    ("\n\n  \n1 0.5\n\n\t\n2 0.25\n\n", True),
    ("1 0.5", True),
    ("independent: false\n1 0.5\n", True),
    ("  \n\x0c\n INDEPENDENT:FALSE \n1 0.5", True),
    ("independent:\ttrue\r\n1 0.5\r\n", True),
    ("independent: maybe\n1 0.5\n", False),
    ("independent: true false\n1 0.5\n", False),
    ("1 0.5\nindependent: false\n", False),
    ("independent: false\nindependent: true\n1 0.5\n", False),
    ("independent:false\n2 0.5\nindependent:true\n", False),
    ("# c p\n1 0.5\n", False),
    ("1 0.5 # note\n", False),
    ("1\n", False),
    ("1 0.5 7\n", False),
    ("1 0.5\n2\n3 0.5 4\n", False),
    ("1 x\n", False),
    ("", False),
    ("\n \n", False),
    ("independent: false\n", False),
    ("independent: true\n\n", False),
]


@pytest.mark.parametrize("text,takes", EDGE_CASES)
def test_fast_path_is_the_loop_or_hands_over(text, takes):
    fast, _ = _both(text)
    assert (fast is not None) == takes


@pytest.mark.parametrize("text,takes", EDGE_CASES)
def test_bom_is_skipped(text, takes):
    fast, loop = _both(BOM + text)
    assert (fast is not None) == takes
    plain_loop = _both(text)[1]
    assert (loop is None) == (plain_loop is None)
    if loop is not None:
        assert _bits(loop) == _bits(plain_loop)


@pytest.mark.parametrize("header", ["", "independent: false\n", "independent: true\n"])
def test_bom_spec_file_reads_like_the_plain_file(tmp_path, header):
    text = header + "0.25 0.1\n-3 1e-300\n1e16 0.5\n"
    plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_bytes(text.encode("utf-8"))
    bom.write_bytes(BOM.encode("utf-8") + text.encode("utf-8"))
    # with a comment the same file takes the line loop
    commented = tmp_path / "commented.txt"
    commented.write_bytes((BOM + "# terms\n" + text).encode("utf-8"))
    want = cli_module._read_sum_spec(str(plain))
    for path in (bom, commented):
        got = cli_module._read_sum_spec(str(path))
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
        assert got.p_values.tobytes() == want.p_values.tobytes()
        assert got.independent == want.independent == (header != "independent: false\n")


_TOKENS = st.sampled_from([
    "1", "-2.5", "0.5", "1_0", "inf", "-inf", "nan", "Infinity", "+1e5", ".5",
    "5.", "1e-300", "5e-324", "-0.0", "0x1", "1__0", "x", "", "#", "# c",
    "independent:", "independent:true", "INDEPENDENT:", "true", "false",
    "\u0661", "1\xa0", "\ufeff1",
])
_SPACES = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                           "\x1f", "\xa0", " \t "])
_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _spec_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["pair", "pair", "pair", "tokens", "header", "blank"]))
        if kind == "pair":
            tokens = [draw(st.sampled_from(["1", "-2.5", "0.5", "1_0", "1e-300", ".5"])),
                      draw(st.sampled_from(["0.5", "0.25", "1", "0", "5e-324", "-0.0"]))]
        elif kind == "header":
            tokens = ["independent:", draw(st.sampled_from(["true", "false", "FALSE"]))]
        elif kind == "blank":
            tokens = []
        else:
            tokens = draw(st.lists(_TOKENS, max_size=4))
        sep = draw(_SPACES)
        line = draw(_SPACES) * draw(st.integers(0, 1)) + sep.join(tokens)
        lines.append(line + draw(_ENDS))
    text = "".join(lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return BOM + text if draw(st.booleans()) else text


@settings(max_examples=300, deadline=None)
@given(_spec_texts())
def test_fast_path_matches_the_loop_on_generated_specs(text):
    _both(text)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(list("0123456789.-+eEinfatrudp_:# \t\n\r\x0b\x0c\x1c")
                                + ["inf", "nan", "independent:", "true", "\xa0",
                                   "\u0661", "\ufeff"]),
                max_size=40).map("".join))
def test_fast_path_matches_the_loop_on_arbitrary_text(text):
    _both(text)


def _long_spec(n: int, header: str = "independent: false\n") -> str:
    rng = np.random.default_rng(5)
    seps = [" ", "\t", "  ", "\x0c"]
    lines = [f"{c!r}{seps[k % 4]}{p!r}\n" for k, (c, p) in
             enumerate(zip(rng.uniform(-2, 2, n).tolist(), rng.uniform(0, 1, n).tolist()))]
    return header + "".join(lines)


def test_spec_longer_than_one_chunk():
    text = _long_spec(8000)
    assert len(text) > 3 * cli_module._SPEC_CHUNK
    fast, _ = _both(text)
    assert fast is not None and len(fast[0]) == 8000 and not fast[2]
    # a bad line, a comment or a header after the first two chunks hands over
    cut = text.rindex("\n", 0, 2 * cli_module._SPEC_CHUNK) + 1
    for extra in ["1 2 3\n", "# late\n", "independent: true\n", "1 x\n"]:
        fast, _ = _both(text[:cut] + extra + text[cut:])
        assert fast is None
    # a header that opens a later step is still a late header
    step = "1" + " " * (cli_module._SPEC_CHUNK - 5) + "0.5\n"
    assert len(step) == cli_module._SPEC_CHUNK
    fast, loop = _both(step + "2 0.25\nindependent: false\n3 0.125\n")
    assert fast is None and loop is not None and not loop[2]
    # the header may follow more than a chunk of blank lines
    blank = " \n" * cli_module._SPEC_CHUNK
    fast, _ = _both(blank + text)
    assert fast is not None and not fast[2]


def test_late_bad_line_names_its_line(tmp_path, capsys):
    text = _long_spec(8000)
    lines = text.split("\n")
    lines.insert(6000, "1.0 0.5 7.0")
    spec = tmp_path / "sum.txt"
    spec.write_text("\n".join(lines))
    assert cli_module.main(["bound", str(spec)]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == (
        "", f"error: {spec}:6001: expected 'coefficient probability', got '1.0 0.5 7.0'\n")


@pytest.mark.parametrize("seed", [7, 11])
def test_bench_shaped_specs_parse_like_the_loop(seed):
    # the spec format of the benchmark: a header, then repr floats
    rng = np.random.default_rng([seed, 3])
    n = 20_000
    for coeffs, probs, independent in [
        (rng.integers(1, 4, 200).tolist(), rng.uniform(0.05, 0.95, 200).tolist(), True),
        ([1.0] * n, rng.uniform(0.05, 0.95, n).tolist(), True),
        (rng.uniform(-2, 2, n).tolist(), rng.uniform(0.05, 0.95, n).tolist(), False),
    ]:
        lines = [f"independent: {'true' if independent else 'false'}"]
        lines += [f"{float(c)!r} {float(p)!r}" for c, p in zip(coeffs, probs)]
        fast, _ = _both("\n".join(lines) + "\n")
        assert fast is not None and fast[2] == independent
        assert fast[0].tolist() == [float(c) for c in coeffs]


def test_invalid_utf8_is_still_a_usage_error(tmp_path, capsys):
    spec = tmp_path / "sum.txt"
    spec.write_bytes(b"1 0.5\n2 0.\xff5\n")
    assert cli_module.main(["bound", str(spec)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: 'utf-8' codec can't decode byte 0xff")
