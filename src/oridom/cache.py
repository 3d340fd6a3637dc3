"""DOM result cache keyed by the labeled graph (not its isomorphism class).

Relabeling an isomorphic graph therefore misses on purpose. The cache file
is line-oriented ``hash<TAB>value<TAB>solver-version``; the last line for a
key and version wins, and corrupt lines are skipped with a warning, never
fatal. The file is read as bytes, and only LF (or CR LF) ends a line: a
line holding any other CR, or a byte that is not ASCII, is corrupt as a
whole.

A DomCache is two strings, its directory and its file name, and keeps no
per-graph state. The lookup that finds no cache file makes the directory, so
an unusable one fails before any scan; a store makes it again if it is gone.

Lookups are answered from an in-process index of the whole file, with one
``os.stat`` of the file name each. The index is trusted while the file's
device, inode, size, modification time and change time are unchanged; any
other state of the file is read again in full, so a corrupt line warns once
each time a changed file is re-read, not on every lookup. oridom's writers
only append, and every append changes the size: a store is one binary append,
checked by ``os.fstat`` on its own handle.
"""

from __future__ import annotations

import hashlib
import os
import warnings

from .domsearch import SOLVER_VERSION
from .exprs import parse_int
from .graphs import UndirectedGraph

CACHE_ENV = "ORIDOM_CACHE_DIR"
_FILENAME = "dom-cache.tsv"

# (file name, signature, {(key, version): value}) of the last file read. It is
# held by the module because the CLI makes a new DomCache for every command.
# Two spellings of one file are two keys: the second one reads the file again.
_index: tuple[str, tuple[int, ...], dict[tuple[str, str], int]] | None = None


def default_cache_dir() -> str:
    # an empty override means unset
    return os.environ.get(CACHE_ENV) or os.path.join(os.path.expanduser("~"), ".cache", "oridom")


def graph_key(G: UndirectedGraph) -> str:
    payload = f"{G.n}:" + ";".join(f"{u},{v}" for u, v in G.edges)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _signature(st: os.stat_result) -> tuple[int, ...]:
    """The file's (device, inode, size, mtime_ns, ctime_ns).

    The change time catches a same-size rewrite whose mtime is put back (as
    ``cp -p`` or ``touch -r`` do): every write sets it, and no program can."""
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)


def _read_index(path: str) -> dict[tuple[str, str], int]:
    index = {}
    # a byte that is not UTF-8 decodes to a lone surrogate, so its line is
    # not ASCII and is skipped like any other corrupt line
    with open(path, "rb") as handle:
        text = handle.read().decode("utf-8", "surrogateescape")
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")  # CR LF ends a line as LF does
        if not line:
            continue
        fields = line.split("\t")
        try:
            # oridom writes only ASCII lines without CR, each value a run of ASCII digits
            if not line.isascii() or "\r" in line or len(fields) != 3:
                raise ValueError
            index[fields[0], fields[2]] = parse_int(fields[1])
        except ValueError:
            warnings.warn(f"skipping corrupt cache line {lineno}: {line!r}", stacklevel=3)
    return index


class DomCache:
    def __init__(self, directory: str | os.PathLike | None = None):
        self.directory = os.fspath(directory or default_cache_dir())
        self.path = os.path.join(self.directory, _FILENAME)

    def lookup(self, G: UndirectedGraph) -> int | None:
        global _index
        # stat before reading: a line appended in between leaves the index
        # with an older signature, so the next lookup reads the file again
        try:
            signature = _signature(os.stat(self.path))
        except (FileNotFoundError, NotADirectoryError):
            os.makedirs(self.directory, exist_ok=True)  # an unusable directory fails here
            return None
        if _index is None or _index[:2] != (self.path, signature):
            _index = (self.path, signature, _read_index(self.path))
        return _index[2].get((graph_key(G), SOLVER_VERSION))

    def store(self, G: UndirectedGraph, value: int) -> None:
        global _index
        key = graph_key(G)
        line = f"{key}\t{value}\t{SOLVER_VERSION}\n".encode("ascii")
        try:
            handle = open(self.path, "ab")
        except FileNotFoundError:  # the directory was removed since the lookup, or never made
            os.makedirs(self.directory, exist_ok=True)
            handle = open(self.path, "ab")
        with handle:
            before = _signature(os.fstat(handle.fileno()))
            handle.write(line)
            handle.flush()
            after = _signature(os.fstat(handle.fileno()))
        # the index takes the new line only if it indexes this handle's file
        # and nothing else wrote to it; otherwise the next lookup reads it again
        if (
            _index is not None
            and _index[:2] == (self.path, before)
            and after[2] == before[2] + len(line)
        ):
            _index[2][key, SOLVER_VERSION] = value
            _index = (self.path, after, _index[2])
        else:
            _index = None
