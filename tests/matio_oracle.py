"""Per-entry matrix and value file I/O, kept as the oracle for ``commlab.matio``.

These are the loops ``matio`` ran before it moved to whole-array formatting
and parsing: one f-string per entry on the way out, one ``float`` pair and
one finiteness check per line on the way in.  ``test_matio`` requires the
library to produce the same bytes, the same bits and the same errors.
"""

from __future__ import annotations

import math

import numpy as np

from commlab.matio import MatrixFormatError
from commlab.numkit import as_matrix


def format_matrix(m) -> str:
    m = as_matrix(m)
    rows, cols = m.shape
    lines = [f"{rows} {cols}"]
    for z in m.reshape(-1):
        lines.append(f"{z.real:.17g} {z.imag:.17g}")
    return "\n".join(lines) + "\n"


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
    entries = np.empty(need, dtype=np.complex128)
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
    return entries.reshape(rows, cols)


def format_values(values) -> str:
    vals = np.asarray(values, dtype=np.float64).reshape(-1)
    if not np.isfinite(vals).all():
        raise MatrixFormatError("non-finite value")
    return "\n".join(f"{x:.17g}" for x in vals) + "\n"


def parse_values(path, text: str) -> np.ndarray:
    """``load_values`` on a file at ``path`` whose content is ``text``."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
