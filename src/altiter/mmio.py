"""MatrixMarket reader and writer for dense real matrices.

The reader accepts the ``array`` layout (dense, column-major) and the
``coordinate`` layout (1-based indices) with field ``real`` or
``integer`` and symmetry ``general``.  :func:`save_matrix` writes the
``array`` layout only, and its files round-trip bit-identically: entries
are printed with ``repr``, which is shortest-exact for doubles.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import MatrixMarketError

_HEADER_PREFIX = "%%matrixmarket"


def _is_data(line: str) -> bool:
    stripped = line.strip()
    return bool(stripped) and not stripped.startswith("%")


def _number(convert, tok: str):
    """int or float of tok, refusing the PEP 515 underscores MatrixMarket lacks."""
    if "_" in tok:
        raise ValueError
    return convert(tok)


def _data_lines(lines, lineno: int):
    """Yield (line_number, tokens) for the data lines of ``lines``, which
    follow line ``lineno``: comment and blank lines are skipped."""
    for lineno, raw in enumerate(lines, start=lineno + 1):
        if _is_data(raw):
            yield lineno, raw.split()


def load_matrix(path: str | os.PathLike) -> np.ndarray:
    """Read one dense matrix from a MatrixMarket file."""
    with open(path, "r", encoding="ascii") as fh:
        return _parse(fh)


def _parse(fh) -> np.ndarray:
    first = fh.readline()
    if not first:
        raise MatrixMarketError(1, "empty file")
    header = first.strip().lower().split()
    if len(header) != 5 or header[0] != _HEADER_PREFIX:
        raise MatrixMarketError(1, "missing '%%MatrixMarket object format field symmetry' header")
    _, obj, layout, field, symmetry = header
    if obj != "matrix":
        raise MatrixMarketError(1, f"unsupported object {obj!r} (only 'matrix')")
    if layout not in ("array", "coordinate"):
        raise MatrixMarketError(1, f"unsupported format {layout!r}")
    if field not in ("real", "integer"):
        raise MatrixMarketError(1, f"unsupported field {field!r} (only 'real'/'integer')")
    if symmetry != "general":
        raise MatrixMarketError(1, f"unsupported symmetry {symmetry!r} (only 'general')")

    size_lineno = 1  # the header
    # readline, as iterating fh would disable the tell() that _read_array needs
    for size_lineno, raw in enumerate(iter(fh.readline, ""), start=2):
        if _is_data(raw):
            break
    else:  # one past the last line read
        raise MatrixMarketError(size_lineno + 1, "missing size line")
    size = raw.split()
    if layout == "array":
        return _read_array(size_lineno, size, fh)
    return _read_coordinate(size_lineno, size, _data_lines(fh, size_lineno))


def _read_array(size_lineno, size, fh) -> np.ndarray:
    """The rows x cols matrix in the column-major body, parsed by numpy's reader.

    A body it rejects or miscounts is read again by a line scan, which takes
    comment lines and lines of differing lengths, and names the bad line."""
    if len(size) != 2:
        raise MatrixMarketError(size_lineno, "array size line must be 'rows cols'")
    try:
        rows, cols = _number(int, size[0]), _number(int, size[1])
    except ValueError:
        raise MatrixMarketError(size_lineno, f"bad dimensions {' '.join(size)!r}") from None
    if rows < 0 or cols < 0:
        raise MatrixMarketError(size_lineno, "dimensions must be nonnegative")
    start = fh.tell()
    while (line := fh.readline()).isspace():  # loadtxt warns on a blank body
        pass
    fh.seek(start)
    try:
        values = np.loadtxt(fh, comments=None, ndmin=2).ravel() if line else None
    except ValueError:  # comment lines, lines of differing lengths or a bad entry
        values = None
    if values is None or values.size != rows * cols:
        fh.seek(start)
        entries, last_lineno = [], size_lineno
        for last_lineno, tokens in _data_lines(fh, size_lineno):
            for tok in tokens:
                try:
                    entries.append(_number(float, tok))
                except ValueError:
                    raise MatrixMarketError(last_lineno, f"bad entry {tok!r}") from None
        if len(entries) != rows * cols:
            raise MatrixMarketError(
                last_lineno,
                f"expected {rows * cols} entries, found {len(entries)}",
            )
        values = np.array(entries)
    # array layout stores entries column by column
    return values.reshape((cols, rows)).T


def _read_coordinate(size_lineno, size, lines) -> np.ndarray:
    if len(size) != 3:
        raise MatrixMarketError(size_lineno, "coordinate size line must be 'rows cols nnz'")
    try:
        rows, cols, nnz = (_number(int, tok) for tok in size)
    except ValueError:
        raise MatrixMarketError(size_lineno, f"bad size line {' '.join(size)!r}") from None
    if rows < 0 or cols < 0 or nnz < 0:
        raise MatrixMarketError(size_lineno, "sizes must be nonnegative")
    out = np.zeros((rows, cols))
    count = 0
    last_lineno = size_lineno
    for lineno, tokens in lines:
        last_lineno = lineno
        if len(tokens) != 3:
            raise MatrixMarketError(lineno, "coordinate entries need 'row col value'")
        try:
            i, j, value = (_number(f, tok) for f, tok in zip((int, int, float), tokens))
        except ValueError:
            raise MatrixMarketError(lineno, f"bad entry {' '.join(tokens)!r}") from None
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise MatrixMarketError(lineno, f"index ({i}, {j}) outside {rows}x{cols}")
        out[i - 1, j - 1] += value
        count += 1
    if count != nnz:
        raise MatrixMarketError(last_lineno, f"expected {nnz} entries, found {count}")
    return out


def save_matrix(path: str | os.PathLike, a) -> None:
    """Write a matrix, or a 1-d array as a column, in MatrixMarket 'array' form."""
    m = np.asarray(a, dtype=float)
    m = m.reshape(-1, 1) if m.ndim == 1 else np.atleast_2d(m)
    rows, cols = m.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix array real general\n")
        fh.write(f"{rows} {cols}\n")
        for column in m.T:  # one join per column keeps memory at one column's text
            fh.write("".join(f"{value!r}\n" for value in column.tolist()))
