import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import matio_oracle
from commlab import matio
from conftest import random_complex


def bits(m: np.ndarray) -> bytes:
    return np.ascontiguousarray(m).view(np.float64).tobytes()


class TestRoundTrip:
    def test_random_bit_exact(self, rng, tmp_path):
        m = random_complex(rng, 7) * np.exp(rng.standard_normal((7, 7)) * 30)
        path = tmp_path / "m.txt"
        matio.save_matrix(path, m)
        back = matio.load_matrix(path)
        assert back.shape == m.shape
        assert bits(back) == bits(m)

    def test_awkward_values(self, tmp_path):
        m = np.array([[0.1 + 0.2j, -0.0 + 0.0j], [1e-308 - 1e308j, 3 + 0j]])
        path = tmp_path / "m.txt"
        matio.save_matrix(path, m)
        assert bits(matio.load_matrix(path)) == bits(m)

    def test_rectangular(self, tmp_path):
        m = np.arange(6, dtype=float).reshape(2, 3) + 0j
        matio.save_matrix(tmp_path / "m.txt", m)
        assert matio.load_matrix(tmp_path / "m.txt").shape == (2, 3)

    def test_text_round_trip(self):
        m = np.array([[1.5 - 2.5j]])
        assert bits(matio.parse_matrix(matio.format_matrix(m))) == bits(m)


class TestErrors:
    def test_bad_header(self):
        with pytest.raises(matio.MatrixFormatError, match="line 1"):
            matio.parse_matrix("2\n1 0\n0 1\n")

    def test_bad_entry_names_line(self):
        with pytest.raises(matio.MatrixFormatError, match="line 3"):
            matio.parse_matrix("1 2\n1 0\nx 1\n")

    def test_wrong_count(self):
        with pytest.raises(matio.MatrixFormatError, match="expected 4"):
            matio.parse_matrix("2 2\n1 0\n0 1\n")

    def test_too_many_entries(self):
        with pytest.raises(matio.MatrixFormatError, match="more than"):
            matio.parse_matrix("1 1\n1 0\n2 0\n")

    def test_non_finite(self):
        with pytest.raises(matio.MatrixFormatError, match="non-finite"):
            matio.parse_matrix("1 1\ninf 0\n")

    def test_header_larger_than_file(self):
        with pytest.raises(matio.MatrixFormatError, match="expected 10000000000 entries, found 1"):
            matio.parse_matrix("100000 100000\n1 0\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(matio.MatrixFormatError):
            matio.load_matrix(tmp_path / "nope.txt")


class TestValues:
    def test_round_trip(self, tmp_path):
        vals = np.array([1.0, -0.25, 1e-17, 3.5e200])
        matio.save_values(tmp_path / "v.txt", vals)
        back = matio.load_values(tmp_path / "v.txt")
        assert back.tobytes() == vals.tobytes()

    def test_bad_line(self, tmp_path):
        (tmp_path / "v.txt").write_text("1.0\nbogus\n")
        with pytest.raises(matio.MatrixFormatError, match="line 2"):
            matio.load_values(tmp_path / "v.txt")


# ---------------------------------------------------------------------------
# the whole-array reader and writer against the per-entry loops they replaced

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
           1e308, -1e308, 1.7976931348623157e308, 0.1, 1e16, 123456789.0)
special_reals = st.sampled_from(SPECIAL)


@st.composite
def matrices(draw):
    """Shapes from 0 x n to 64 x 64; small ones entry by entry, large ones
    from a seeded spread over 1e-330..1e307 with special values planted."""
    if draw(st.booleans()):
        small = st.tuples(st.integers(0, 4), st.integers(0, 4))
        entries = st.one_of(st.builds(complex, special_reals, special_reals),
                            st.complex_numbers(allow_nan=False, allow_infinity=False))
        return draw(arrays(np.complex128, small, elements=entries))
    rows, cols = draw(st.integers(0, 64)), draw(st.integers(0, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = rng.standard_normal((rows, cols, 2)) * 10.0 ** rng.uniform(-330, 307, (rows, cols, 2))
    flat = parts.reshape(-1)
    for _ in range(draw(st.integers(0, 8)) if flat.size else 0):
        flat[draw(st.integers(0, flat.size - 1))] = draw(special_reals)
    return parts.view(np.complex128)[..., 0]


# Tokens on both sides of Python's float grammar.
TOKENS = ("1", "-0", "+1e5", "1_0", "1__0", "_1", "1.5e", "0x10", "nan", "-inf",
          "infinity", "1e500", "1e-400", "5e-324", "١٢", "−1", ".5",
          "1.", "e5", "--1", "1e+0_1")


def outcome(parse, text):
    """(error message, None) or (None, result bits) of one parse."""
    try:
        m = parse(text)
    except matio.MatrixFormatError as exc:
        return str(exc), None
    return None, (m.shape, bits(m))


class TestAgainstPerEntryOracle:
    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_format_matrix_bytes(self, m):
        assert matio.format_matrix(m) == matio_oracle.format_matrix(m)

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_parse_matrix_bits(self, m):
        text = matio_oracle.format_matrix(m)
        assert bits(matio.parse_matrix(text)) == bits(matio_oracle.parse_matrix(text))
        assert matio.parse_matrix(text).shape == m.shape

    def test_5e_324j(self):
        m = np.array([[5e-324j, -5e-324j], [-0.0 - 0.0j, 1e308 - 1e308j]])
        text = matio.format_matrix(m)
        assert text == matio_oracle.format_matrix(m)
        assert bits(matio.parse_matrix(text)) == bits(m)

    def test_non_contiguous_input(self):
        m = np.arange(12, dtype=float).reshape(3, 4).T * (1 - 2j)
        assert matio.format_matrix(m) == matio_oracle.format_matrix(m)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 3),
           st.lists(st.lists(st.sampled_from(TOKENS), max_size=3), max_size=12),
           st.sampled_from(("\n", "\r\n", "\t\n")))
    def test_parse_matrix_same_verdict(self, rows, cols, body, newline):
        text = newline.join([f"{rows} {cols}"] + [" ".join(line) for line in body])
        assert outcome(matio.parse_matrix, text) == outcome(matio_oracle.parse_matrix, text)

    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, st.integers(0, 300),
                  elements=st.one_of(special_reals,
                                     st.floats(allow_nan=False, allow_infinity=False))))
    def test_format_values_bytes(self, vals):
        assert matio.format_values(vals) == matio_oracle.format_values(vals)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.lists(st.sampled_from(TOKENS), max_size=2), max_size=10))
    def test_load_values_same_verdict(self, tmp_path, body):
        path = tmp_path / "v.txt"
        text = "\n".join(" ".join(line) for line in body)
        path.write_text(text)
        assert (outcome(lambda _: matio.load_values(path), text)
                == outcome(lambda t: matio_oracle.parse_values(path, t), text))


def per_value_csv(header, rows) -> str:
    """The CSV writer ``format_table`` replaced: one f-string per value."""
    def fmt(x) -> str:
        return f"{x:.17g}" if isinstance(x, float) else str(x)

    lines = [",".join(header)]
    lines.extend(",".join(fmt(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


class TestFormatTable:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(-10**20, 10**20),
        st.one_of(special_reals, st.floats()),
        st.text(alphabet="abc_%s", max_size=6),
        st.builds(float, st.integers(-5, 5))), max_size=40))
    def test_bytes_match_per_value_formatting(self, rows):
        header = ("index", "value", "name", "whole")
        assert matio.format_table(header, rows) == per_value_csv(header, rows)

    def test_numpy_scalars(self):
        rows = [(np.int64(3), np.float64(0.1), True)]
        assert matio.format_table(("a", "b", "c"), rows) == "a,b,c\n3,0.10000000000000001,True\n"

    def test_header_only(self):
        assert matio.format_table(("check_name", "value"), []) == "check_name,value\n"


def good_lines(n: int) -> list[str]:
    m = np.arange(n * n, dtype=float).reshape(n, n) * (0.5 - 1.25j)
    return matio.format_matrix(m).splitlines()


class TestLateLineErrors:
    """Each failure class, with the fault deep in a 64x64 file."""

    @pytest.mark.parametrize("bad, message", [
        ("1 2 3", "line 4000: expected 're im'"),
        ("1 x", "line 4000: bad decimal literal"),
        ("1", "line 4000: expected 're im'"),
        ("nan 0", "line 4000: non-finite entry"),
        ("0 1e999", "line 4000: non-finite entry"),
    ])
    def test_bad_line_named(self, bad, message):
        lines = good_lines(64)
        lines[3999] = bad
        text = "\n".join(lines) + "\n"
        with pytest.raises(matio.MatrixFormatError, match=message):
            matio.parse_matrix(text)
        assert outcome(matio.parse_matrix, text) == outcome(matio_oracle.parse_matrix, text)

    def test_too_many_entries(self):
        text = "\n".join(good_lines(64) + ["1 1"]) + "\n"
        with pytest.raises(matio.MatrixFormatError, match="line 4098: more than rows"):
            matio.parse_matrix(text)

    def test_too_few_entries(self):
        text = "\n".join(good_lines(64)[:-1]) + "\n"
        with pytest.raises(matio.MatrixFormatError, match="expected 4096 entries, found 4095"):
            matio.parse_matrix(text)

    def test_blank_lines_skipped(self):
        lines = good_lines(64)
        lines[2000:2000] = ["", "   "]
        lines[3999] = "x 0"
        with pytest.raises(matio.MatrixFormatError, match="line 4000: bad decimal"):
            matio.parse_matrix("\n".join(lines))

    @pytest.mark.parametrize("bad, message", [
        ("x", "line 4000: bad decimal literal"),
        ("1 2", "line 4000: bad decimal literal"),
        ("-inf", "line 4000: non-finite value"),
    ])
    def test_values_bad_line_named(self, tmp_path, bad, message):
        lines = [f"{k}.5" for k in range(4096)]
        lines[3999] = bad
        path = tmp_path / "v.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(matio.MatrixFormatError, match=message):
            matio.load_values(path)
