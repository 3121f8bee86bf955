"""Shared plain-text serialization for matrices and value columns.

Matrix layout: first line ``rows cols``; then rows*cols lines in row-major
order, each ``re im`` printed with 17 significant digits so every finite
double round-trips bit-exactly.  Value files hold one decimal per line.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile

import numpy as np

from .numkit import as_matrix

# Entries formatted, or lines parsed, per block.  Bounds the Python floats and
# token lists alive at once, so parsing a file needs no more memory than the
# per-line loop did (at 4096, a 128 x 128 parse peaked at twice that).
_CHUNK = 256


class MatrixFormatError(ValueError):
    """Malformed matrix or value file; messages name the offending line."""


def atomic_write(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file and rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".commlab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_matrix(m) -> str:
    m = np.ascontiguousarray(as_matrix(m))
    rows, cols = m.shape
    parts = [f"{rows} {cols}\n"]
    # One %-format per block of rows: the same .17g text as a per-entry
    # f-string, without a Python-level step per entry or a full float list.
    step = max(1, _CHUNK // max(cols, 1))
    for r in range(0, rows, step):
        block = m[r:r + step].view(np.float64).reshape(-1).tolist()
        parts.append("%.17g %.17g\n" * (len(block) // 2) % tuple(block))
    return "".join(parts)


def format_table(header, rows) -> str:
    """CSV text: the header line, then one line per row.

    A float cell prints with 17 significant digits and any other cell as
    ``str``; each column takes the kind of its first row's cell, so the
    whole body is one %-format.
    """
    head = ",".join(header) + "\n"
    if not rows:
        return head
    line = ",".join("%.17g" if isinstance(x, float) else "%s" for x in rows[0]) + "\n"
    return head + line * len(rows) % tuple(itertools.chain.from_iterable(rows))


def _scan_entries(lines: list[str], need: int) -> np.ndarray:
    """Line-by-line parse of the body; names the first bad line."""
    # Each entry has its own line, so a header claiming more than the file
    # holds gets the count error below, not an allocation of its size.
    entries = np.empty(min(need, len(lines) - 1), dtype=np.complex128)
    count = 0
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise MatrixFormatError(f"line {lineno}: expected 're im', got {raw!r}")
        try:
            re, im = float(parts[0]), float(parts[1])
        except ValueError:
            raise MatrixFormatError(f"line {lineno}: bad decimal literal {raw!r}") from None
        if not (math.isfinite(re) and math.isfinite(im)):
            raise MatrixFormatError(f"line {lineno}: non-finite entry")
        if count >= need:
            raise MatrixFormatError(f"line {lineno}: more than rows*cols entries")
        entries[count] = complex(re, im)
        count += 1
    if count != need:
        raise MatrixFormatError(f"expected {need} entries, found {count}")
    return entries


def _fast_entries(lines: list[str], need: int) -> np.ndarray | None:
    """The body as re/im pairs in one float64 array; None when a line or the
    entry count is wrong, for the line-by-line scan to name the fault.

    Lines are split and converted a block at a time, so no list of every
    token is ever held.
    """
    out = np.empty(2 * need, dtype=np.float64)
    filled = 0
    for start in range(1, len(lines), _CHUNK):
        split = [p for p in map(str.split, lines[start:start + _CHUNK]) if p]
        if not split:
            continue
        k = 2 * len(split)
        if set(map(len, split)) != {2} or filled + k > out.size:
            return None
        try:
            out[filled:filled + k] = np.fromiter(
                map(float, itertools.chain.from_iterable(split)), np.float64, k)
        except ValueError:
            return None
        filled += k
    if filled != out.size or not np.isfinite(out).all():
        return None
    return out


def parse_matrix(text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise MatrixFormatError("line 1: missing header 'rows cols'")
    head = lines[0].split()
    if len(head) != 2:
        raise MatrixFormatError(f"line 1: header must be 'rows cols', got {lines[0]!r}")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError:
        raise MatrixFormatError(f"line 1: non-integer header {lines[0]!r}") from None
    if rows < 0 or cols < 0:
        raise MatrixFormatError("line 1: negative dimensions")
    need = rows * cols
    pairs = _fast_entries(lines, need) if need < len(lines) else None
    entries = _scan_entries(lines, need) if pairs is None else pairs.view(np.complex128)
    return entries.reshape(rows, cols)


def save_matrix(path: str | os.PathLike, m) -> None:
    atomic_write(path, format_matrix(m))


def load_matrix(path: str | os.PathLike) -> np.ndarray:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_matrix(text)
    except MatrixFormatError as exc:
        raise MatrixFormatError(f"{path}: {exc}") from None


def format_values(values) -> str:
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    if not np.isfinite(vals).all():
        raise MatrixFormatError("non-finite value")
    parts = []
    for start in range(0, vals.size, _CHUNK):
        block = vals[start:start + _CHUNK].tolist()
        parts.append("%.17g\n" * len(block) % tuple(block))
    return "".join(parts) or "\n"


def save_values(path: str | os.PathLike, values) -> None:
    atomic_write(path, format_values(values))


def _scan_values(path, lines: list[str]) -> np.ndarray:
    """Line-by-line parse of a value file; names the first bad line."""
    out = []
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            x = float(raw.strip())
        except ValueError:
            raise MatrixFormatError(
                f"{path}: line {lineno}: bad decimal literal {raw!r}"
            ) from None
        if not math.isfinite(x):
            raise MatrixFormatError(f"{path}: line {lineno}: non-finite value")
        out.append(x)
    return np.asarray(out, dtype=np.float64)


def load_values(path: str | os.PathLike) -> np.ndarray:
    try:
        with open(path) as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise MatrixFormatError(f"cannot read {path}: {exc}") from exc
    try:
        out = np.fromiter(map(float, filter(None, map(str.strip, lines))), np.float64)
    except ValueError:
        return _scan_values(path, lines)
    return out if np.isfinite(out).all() else _scan_values(path, lines)
