"""Edge-list persistence and streaming ingestion for :class:`~repro.graph.digraph.DiGraph`.

Two families of entry points:

* **Round-trip persistence** — :func:`save_edge_list` / :func:`load_edge_list`
  and :func:`save_npz` / :func:`load_npz` write and read graphs this library
  built itself.  The text header records the constructor options
  (``dedupe``, ``loops``) so a reloaded graph has identical semantics —
  in particular a ``dedupe=False`` multigraph does not come back
  deduplicated with a different ``m``.

* **Ingestion** — :func:`ingest_edge_list` (and its cache-aware wrapper
  :func:`ingest_cached`) reads *foreign* edge lists: the whitespace-separated
  text format SNAP distributes EPINIONS/DBLP/LIVEJOURNAL in.  Real crawls
  have ``#``/``%`` comments, blank lines, duplicate arcs, self-loops and
  non-contiguous node ids; ingestion handles all of these, remaps ids to a
  dense ``0..n-1`` range, and reports what it dropped.

Both paths share :func:`read_edge_array`, a chunked reader that parses
fixed-size byte blocks with one vectorized ``numpy`` conversion per block
instead of a Python loop per line, so multi-million-arc crawls ingest in
seconds.
"""

from __future__ import annotations

import os
import stat
from dataclasses import dataclass
from zipfile import BadZipFile

import numpy as np

from repro.errors import GraphError
from repro.graph.digraph import DiGraph

#: Size of the byte blocks :func:`read_edge_array` parses at a time.  A
#: pure function of the file content — never of free memory — so parsing
#: is reproducible; exposed for tests that force chunk-boundary splits.
DEFAULT_CHUNK_BYTES = 1 << 20

_COMMENT_PREFIXES = (b"#", b"%")


# ----------------------------------------------------------------------
# Low-level chunked parsing
# ----------------------------------------------------------------------
def _parse_header_tokens(line: bytes, header: dict) -> None:
    """Collect ``key=value`` integer tokens from a comment line.

    Only the first occurrence of each key wins, so a stray ``n=`` deep in
    the file cannot override the real header.
    """
    for token in line.split():
        key, sep, value = token.partition(b"=")
        if not sep or not key:
            continue
        name = key.decode("ascii", "replace").lower()
        if name in header:
            continue
        try:
            header[name] = int(value)
        except ValueError:
            continue


def _parse_data_lines(
    lines: list[bytes], path: str, block: bytes, first_line: int
) -> np.ndarray:
    """Parse complete data lines into an ``(k, 2) int64`` array.

    Fast path: when every line has exactly two tokens (the overwhelmingly
    common case), the token stream is converted with a single vectorized
    ``np.array`` call.  Lines with extra columns (edge weights,
    timestamps) fall back to a per-line loop that keeps the first two
    tokens, and short or non-integer lines raise :class:`GraphError`
    naming the line's number in the file (*block* is the text *lines*
    came from, starting at line *first_line*) but not its bytes, so an
    error message never echoes the content of a file that is not an
    edge list.
    """
    split_lines = [line.split() for line in lines]
    if all(len(parts) == 2 for parts in split_lines):
        try:
            flat = [token for parts in split_lines for token in parts]
            return np.array(flat, dtype=np.int64).reshape(-1, 2)
        except (ValueError, OverflowError):
            pass  # a non-integer token somewhere: diagnose line by line
    pairs = np.empty((len(lines), 2), dtype=np.int64)
    for k, parts in enumerate(split_lines):
        try:
            pairs[k, 0] = int(parts[0])
            pairs[k, 1] = int(parts[1])
        except (IndexError, ValueError, OverflowError):
            line = first_line + _data_line_offsets(block)[k]
            raise GraphError(
                f"malformed edge line {line} in {path!r}: "
                "expected two integer node ids"
            ) from None
    return pairs


def _data_line_offsets(block: bytes) -> list[int]:
    """Offsets of *block*'s data lines among all its lines (error path)."""
    return [
        index
        for index, raw in enumerate(block.split(b"\n"))
        if raw.strip() and not raw.strip().startswith(_COMMENT_PREFIXES)
    ]


def _split_block(block: bytes) -> tuple[list[bytes], list[bytes]]:
    """Split a block of complete lines into (data_lines, comment_lines)."""
    data: list[bytes] = []
    comments: list[bytes] = []
    for raw in block.split(b"\n"):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(_COMMENT_PREFIXES):
            comments.append(line)
        else:
            data.append(line)
    return data, comments


def read_edge_array(
    path: str, *, chunk_bytes: int = DEFAULT_CHUNK_BYTES
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Stream a text edge list into ``(tails, heads, header)`` arrays.

    The file is read in fixed-size byte chunks; the trailing partial line
    of each chunk is carried into the next, so results are independent of
    *chunk_bytes*.  ``#``/``%`` lines are comments; ``key=value`` integer
    tokens found in them (``n=``, ``dedupe=``, ``loops=``) are returned in
    *header*.  Data lines need at least two integer columns (``tail
    head``); extra columns are ignored.  A missing or unreadable *path*,
    or one that is not a regular file (a device or pipe), raises
    :class:`GraphError`.
    """
    if chunk_bytes < 1:
        raise GraphError(f"chunk_bytes must be positive, got {chunk_bytes}")
    try:
        # A device or pipe may never end or never hold a newline, and
        # fspath refuses an integer, which open() takes as a descriptor.
        if not stat.S_ISREG(os.stat(os.fspath(path)).st_mode):
            raise GraphError(f"cannot read edge list {path!r}: not a regular file")
        fh = open(path, "rb")
    except OSError as exc:
        raise GraphError(f"cannot read edge list {path!r}: {exc.strerror}") from None
    header: dict = {}
    blocks: list[np.ndarray] = []

    def parse(block: bytes, first_line: int) -> None:
        data_lines, comment_lines = _split_block(block)
        for comment in comment_lines:
            _parse_header_tokens(comment, header)
        if data_lines:
            blocks.append(_parse_data_lines(data_lines, path, block, first_line))

    carry = b""
    carry_line = 1  # the file line carry starts on
    with fh:
        while True:
            data = fh.read(chunk_bytes)
            if not data:
                break
            buf = carry + data
            cut = buf.rfind(b"\n")
            if cut < 0:
                carry = buf
                continue
            carry = buf[cut + 1 :]
            parse(buf[:cut], carry_line)
            carry_line += buf.count(b"\n", 0, cut) + 1
    if carry.strip():
        parse(carry, carry_line)
    if blocks:
        pairs = np.concatenate(blocks, axis=0)
        tails = np.ascontiguousarray(pairs[:, 0])
        heads = np.ascontiguousarray(pairs[:, 1])
    else:
        tails = np.empty(0, dtype=np.int64)
        heads = np.empty(0, dtype=np.int64)
    return tails, heads, header


def _resolve_declared_n(
    tails: np.ndarray, heads: np.ndarray, n: int | None, header: dict, path: str
) -> int:
    """Resolve the node count: explicit *n* wins over the header, which
    wins over max-id inference; explicit/header counts are validated
    against the data."""
    declared_n = n
    declared = "the caller"
    if declared_n is None and "n" in header:
        declared_n = int(header["n"])
        declared = "the file header"
    if declared_n is None:
        return int(max(tails.max(initial=-1), heads.max(initial=-1)) + 1)
    _validate_node_range(tails, heads, declared_n, path, declared)
    return int(declared_n)


def _validate_node_range(
    tails: np.ndarray, heads: np.ndarray, n: int, path: str, declared: str
) -> None:
    """Reject arcs whose endpoints fall outside ``[0, n)``.

    Feeding out-of-range ids downstream corrupts every CSR consumer, so a
    declared node count smaller than the data (a stale header after graph
    edits, or a wrong explicit ``n=``) fails loudly here.
    """
    if not tails.size:
        return
    lo = int(min(tails.min(), heads.min()))
    hi = int(max(tails.max(), heads.max()))
    if lo < 0:
        raise GraphError(f"negative node id {lo} in {path!r}")
    if hi >= n:
        raise GraphError(
            f"{path!r} contains node id {hi} but {declared} declares only "
            f"n={n} nodes (stale header after edits, or a wrong explicit "
            f"n=?); pass the true node count or remap ids via ingest_edge_list"
        )


# ----------------------------------------------------------------------
# Round-trip persistence (graphs this library built)
# ----------------------------------------------------------------------
def save_edge_list(graph: DiGraph, path: str) -> None:
    """Write ``tail head`` lines with a header recording constructor options.

    The ``dedupe=``/``loops=`` header tokens let :func:`load_edge_list`
    rebuild the graph with the same semantics it was constructed with.
    """
    tails, heads = graph.edge_array()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# DiGraph n={graph.n} m={graph.m} "
            f"dedupe={int(graph.deduped)} loops={int(graph.allows_self_loops)}\n"
        )
        np.savetxt(fh, np.column_stack([tails, heads]), fmt="%d")


def load_edge_list(
    path: str,
    n: int | None = None,
    *,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    **kwargs,
) -> DiGraph:
    """Read a text edge list; ``#``/``%``-prefixed lines are comments.

    An ``n=<count>`` token in a comment fixes the node count (preserving
    isolated trailing nodes); an explicit *n* argument wins over the
    header.  Ids are validated against the node count *before*
    construction: a count smaller than the data raises :class:`GraphError`
    instead of producing out-of-range arcs downstream.  Header
    ``dedupe=``/``loops=`` tokens written by :func:`save_edge_list`
    restore the original constructor options unless overridden via
    keyword arguments.
    """
    tails, heads, header = read_edge_array(path, chunk_bytes=chunk_bytes)
    declared_n = _resolve_declared_n(tails, heads, n, header, path)
    if "dedupe" not in kwargs and "dedupe" in header:
        kwargs["dedupe"] = bool(header["dedupe"])
    if "allow_self_loops" not in kwargs and "loops" in header:
        kwargs["allow_self_loops"] = bool(header["loops"])
    return DiGraph(declared_n, tails, heads, **kwargs)


def save_npz(graph: DiGraph, path: str) -> None:
    """Persist to a compressed numpy archive (constructor options included)."""
    tails, heads = graph.edge_array()
    np.savez_compressed(
        path,
        n=np.int64(graph.n),
        tails=tails,
        heads=heads,
        deduped=np.int64(graph.deduped),
        loops=np.int64(graph.allows_self_loops),
    )


def load_npz(path: str) -> DiGraph:
    """Load a graph previously written by :func:`save_npz`.

    Archives written before constructor options were persisted load with
    ``dedupe=False`` (the saved arcs are the graph's exact arc multiset).
    """
    if not os.path.exists(path):
        raise GraphError(f"no such graph archive: {path!r}")
    with np.load(path) as data:
        loops = bool(data["loops"]) if "loops" in data else False
        return DiGraph(
            int(data["n"]),
            data["tails"],
            data["heads"],
            dedupe=False,
            allow_self_loops=loops,
        )


# ----------------------------------------------------------------------
# Ingestion of foreign (SNAP-style) edge lists
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IngestResult:
    """A graph ingested from a foreign edge list, plus what happened to it.

    ``original_ids[new_id] = raw_id`` maps the dense node ids back to the
    file's ids (``None`` when ``remap_ids=False``); the ``*_dropped``
    counters account for every raw arc: ``raw_edges = graph.m +
    self_loops_dropped + duplicates_dropped``.
    """

    graph: DiGraph
    source: str
    original_ids: np.ndarray | None
    raw_edges: int
    self_loops_dropped: int
    duplicates_dropped: int

    def stats_row(self) -> dict:
        """One reporting row for the CLI / tables."""
        return {
            "source": self.source,
            "nodes": self.graph.n,
            "arcs": self.graph.m,
            "raw arcs": self.raw_edges,
            "self-loops dropped": self.self_loops_dropped,
            "duplicates dropped": self.duplicates_dropped,
            "remapped": self.original_ids is not None,
        }


def ingest_edge_list(
    path: str,
    *,
    n: int | None = None,
    remap_ids: bool = True,
    drop_self_loops: bool = True,
    dedupe: bool = True,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> IngestResult:
    """Ingest a SNAP-style text edge list into a dense :class:`DiGraph`.

    With ``remap_ids=True`` (the default) node ids may be arbitrary
    non-negative integers — non-contiguous SNAP crawls ingest into the
    same allocation as a pre-remapped equivalent, with ``original_ids``
    recording the inverse mapping.  With ``remap_ids=False`` ids must
    already be dense and are validated against *n* (or the file header,
    or the max id).  Self-loops are meaningless under independent-cascade
    semantics and dropped by default; duplicate arcs are collapsed when
    *dedupe* is set.
    """
    tails, heads, header = read_edge_array(path, chunk_bytes=chunk_bytes)
    raw_edges = int(tails.size)
    original_ids: np.ndarray | None = None
    if remap_ids:
        if raw_edges and int(min(tails.min(), heads.min())) < 0:
            raise GraphError(f"negative node id in {path!r}")
        original_ids, inverse = np.unique(
            np.concatenate([tails, heads]), return_inverse=True
        )
        tails = np.ascontiguousarray(inverse[:raw_edges])
        heads = np.ascontiguousarray(inverse[raw_edges:])
        n_nodes = int(original_ids.size)
        if n is not None and n_nodes > n:
            raise GraphError(
                f"{path!r} has {n_nodes} distinct node ids but n={n} was declared"
            )
    else:
        n_nodes = _resolve_declared_n(tails, heads, n, header, path)
    if drop_self_loops:
        loops = tails == heads
        n_loops = int(np.count_nonzero(loops))
        if n_loops:
            keep = ~loops
            tails = tails[keep]
            heads = heads[keep]
    else:
        n_loops = 0
    kept = int(tails.size)
    graph = DiGraph(
        n_nodes,
        tails,
        heads,
        dedupe=dedupe,
        allow_self_loops=not drop_self_loops,
    )
    return IngestResult(
        graph=graph,
        source=path,
        original_ids=original_ids,
        raw_edges=raw_edges,
        self_loops_dropped=n_loops,
        duplicates_dropped=kept - graph.m,
    )


def _source_signature(path: str) -> str:
    """Cheap change-detection key for a source file: size + mtime."""
    try:
        stat = os.stat(path)
    except OSError as exc:
        raise GraphError(f"cannot read edge list {path!r}: {exc.strerror}") from None
    return f"{stat.st_size}:{stat.st_mtime_ns}"


def _options_signature(**options) -> str:
    return ",".join(f"{key}={options[key]}" for key in sorted(options))


def ingest_cached(
    path: str,
    cache_path: str | None = None,
    *,
    refresh: bool = False,
    n: int | None = None,
    remap_ids: bool = True,
    drop_self_loops: bool = True,
    dedupe: bool = True,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> IngestResult:
    """:func:`ingest_edge_list` with a ``.npz`` parse cache.

    The first ingestion of *path* writes the parsed graph (plus the id
    map and drop counters) to *cache_path* (default ``<path>.ingest.npz``);
    later calls with the same source file and ingest options load the
    archive instead of re-parsing the text.  The cache keys on the source
    size + mtime and the option set, so edits and option changes re-ingest
    automatically; ``refresh=True`` forces it.
    """
    if cache_path is None:
        cache_path = path + ".ingest.npz"
    src_sig = _source_signature(path)
    opt_sig = _options_signature(
        n=n, remap_ids=remap_ids, drop_self_loops=drop_self_loops, dedupe=dedupe
    )
    if not refresh and os.path.exists(cache_path):
        try:
            with np.load(cache_path, allow_pickle=False) as data:
                if (
                    str(data["src_sig"]) == src_sig
                    and str(data["opt_sig"]) == opt_sig
                ):
                    original_ids = (
                        np.asarray(data["original_ids"])
                        if bool(data["remapped"])
                        else None
                    )
                    graph = DiGraph(
                        int(data["n"]),
                        data["tails"],
                        data["heads"],
                        dedupe=False,
                        allow_self_loops=not drop_self_loops,
                    )
                    return IngestResult(
                        graph=graph,
                        source=path,
                        original_ids=original_ids,
                        raw_edges=int(data["raw_edges"]),
                        self_loops_dropped=int(data["self_loops_dropped"]),
                        duplicates_dropped=int(data["duplicates_dropped"]),
                    )
        except (OSError, ValueError, KeyError, BadZipFile):
            pass  # unreadable/stale cache: fall through to re-ingest
    result = ingest_edge_list(
        path,
        n=n,
        remap_ids=remap_ids,
        drop_self_loops=drop_self_loops,
        dedupe=dedupe,
        chunk_bytes=chunk_bytes,
    )
    tails, heads = result.graph.edge_array()
    np.savez_compressed(
        cache_path,
        src_sig=src_sig,
        opt_sig=opt_sig,
        n=np.int64(result.graph.n),
        tails=tails,
        heads=heads,
        remapped=np.bool_(result.original_ids is not None),
        original_ids=(
            result.original_ids
            if result.original_ids is not None
            else np.empty(0, dtype=np.int64)
        ),
        raw_edges=np.int64(result.raw_edges),
        self_loops_dropped=np.int64(result.self_loops_dropped),
        duplicates_dropped=np.int64(result.duplicates_dropped),
    )
    return result
