"""Shared builders for the test suite."""

from __future__ import annotations

import math

import numpy as np

from walklang import CoinAssignment, NonUnitaryError, PortGraph, WalkState
from walklang import coins as coinlib
from walklang.encoding import encode_chunks


def basis_state(graph: PortGraph, v: int, c: int) -> WalkState:
    """All amplitude on the single basis state ``(v, c)``."""
    return WalkState(graph, np.eye(graph.num_ports)[graph.offset(v) + c])


def line_graph(n: int) -> PortGraph:
    """Path of n vertices; interior vertices get ports [left, right]."""
    return PortGraph([(i, i + 1) for i in range(n - 1)])


def hadamard_line_coins(graph: PortGraph) -> CoinAssignment:
    return CoinAssignment(
        graph,
        [
            coinlib.hadamard() if graph.degree(v) == 2 else coinlib.identity(1)
            for v in graph.vertices
        ],
    )


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * np.exp(-1j * np.angle(np.diag(r)))[None, :]


def graph_from_edges(n: int, edges: list[tuple[int, int]]) -> PortGraph:
    """The graph of ``edges``, plus an edge to ``v + 1`` for each port-less ``v < n``."""
    edges = list(edges)
    for v in range(n):
        if all(v not in edge for edge in edges):
            edges.append((v, (v + 1) % n))
    return PortGraph(edges)


def counted_pairing(edges: list[tuple[int, int]]) -> dict[tuple[int, int], tuple[int, int]]:
    """Port pairing by a per-vertex port counter, one edge at a time.

    An oracle for ``PortGraph.shift_permutation``: each edge takes the next
    free port at ``u``, then at ``v``, and its two ends are paired.
    """
    ports: dict[int, int] = {}
    pairing = {}
    for u, v in edges:
        cu = ports.get(u, 0)
        ports[u] = cu + 1
        cv = ports.get(v, 0)
        ports[v] = cv + 1
        pairing[(u, cu)] = (v, cv)
        pairing[(v, cv)] = (u, cu)
    return pairing


def all_words(n: int) -> list[str]:
    return ["".join("ab"[(bits >> (n - 1 - k)) & 1] for k in range(n)) for bits in range(2 ** n)]


def reference_evolve(state, coins: CoinAssignment, steps: int) -> np.ndarray:
    """Amplitudes after ``steps`` steps by a per-vertex coin loop and a separate shift.

    A bit-identity oracle for ``walk.evolve``: each block is one ``(d, d)``
    by ``(d,)`` product on its contiguous slice, then the shift scatters.
    """
    graph = state.graph
    perm = graph.shift_permutation()
    amps = state.amplitudes
    for _ in range(steps):
        coined = np.empty_like(amps)
        for v in graph.vertices:
            lo = graph.offset(v)
            hi = lo + graph.degree(v)
            coined[lo:hi] = coins.matrices[v] @ amps[lo:hi]
        amps = np.empty_like(coined)
        amps[perm] = coined
    return amps


def events_are_kernel_entries(program, coins: CoinAssignment) -> bool:
    """Whether every event of a ``walk.Program`` multiplies a kernel entry's own stack."""
    return all(any(blocks is stack for _, stack in coins._kernel) for _, blocks in program._events)


def reference_fidelity(reference, amplitudes: np.ndarray) -> np.ndarray:
    """Fidelity of each row with ``reference``, measured one row at a time.

    An oracle for ``metrics.fidelity``: each row is copied to contiguous
    memory, then ``abs(complex(np.vdot(ref, row))) ** 2``, uncapped.
    """
    ref = reference.amplitudes
    return np.array([abs(complex(np.vdot(ref, np.ascontiguousarray(row)))) ** 2
                     for row in amplitudes])


def reference_jaro(words: list[str], reference: str) -> np.ndarray:
    """Jaro scores of equal-length words, every word scanned at every position.

    An oracle for ``metrics.jaro``: the greedy match runs over all rows at
    once on a ``(rows, n, L)`` mask, with no prefix shared, and the
    transposition count and formula are those of ``metrics.jaro``.
    """
    rows, n, size = len(words), len(words[0]), len(reference)
    codes = np.frombuffer("".join(words).encode("utf-32-le"), dtype="<u4").reshape(rows, n)
    ref = np.frombuffer(reference.encode("utf-32-le"), dtype="<u4")
    near = np.abs(np.arange(n)[:, None] - np.arange(size)) <= max(max(n, size) // 2 - 1, 0)
    same = (codes[:, :, None] == ref) & near  # (rows, n, size): may word i match reference j
    free = np.ones((rows, size), dtype=bool)  # reference characters not yet matched
    hit = np.zeros((rows, n), dtype=bool)  # word characters matched
    every = np.arange(rows)
    for i in range(n):
        candidates = free & same[:, i]
        j = candidates.argmax(axis=1)  # the first free match, or 0 when there is none
        hit[:, i] = found = candidates[every, j]
        free[every, j] &= ~found
    # boolean indexing lists the k-th matches of word and reference side by side
    swapped = codes[hit] != np.broadcast_to(ref, free.shape)[~free]
    t = np.bincount(np.nonzero(hit)[0], weights=swapped, minlength=rows) / 2.0
    s = hit.sum(axis=1, dtype=np.float64)
    return (s / n + s / size + (s - t) / np.maximum(s, 1.0)) / 3.0


def slot_rows(machine, first, second, *, etas) -> np.ndarray:
    """Every ``(W * E, 2n)`` slot row of ``encoding.encode_chunks``, its chunks concatenated."""
    return np.concatenate(list(encode_chunks(machine, first, second, etas=etas)))


def diagonal(pairs: int) -> np.ndarray:
    """The rows of a w-major ``pairs`` by ``pairs`` grid that read pair k at eta k."""
    return np.arange(pairs) * (pairs + 1)


def spread(machine, slots: np.ndarray) -> np.ndarray:
    """``(rows, 2n)`` slot rows spread onto the machine's ports: ``(rows, P)``, zero elsewhere."""
    amps = np.zeros((len(slots), machine.graph.num_ports), dtype=np.complex128)
    amps[:, np.ravel(machine.slot_indices)] = slots
    return amps


def reference_load(machine, w1: str, w2: str, eta: complex) -> np.ndarray:
    """Encoded amplitudes on every port, by a loop over positions, one Python scalar at a time.

    A bit-identity oracle for ``encoding.encode_chunks``' rows spread onto
    the ports (:func:`spread`), and so for the states of
    ``encoding.quantum_initial_state``: matching positions set
    ``alpha`` on their slot, differing ones add ``alpha * eta`` and
    ``alpha * sqrt(1 - |eta|^2)`` onto zero.
    """
    n = len(w1)
    alpha = 1.0 / math.sqrt(n)
    a1 = alpha * eta
    a2 = alpha * math.sqrt(max(0.0, 1.0 - abs(eta) ** 2))
    amps = np.zeros(machine.graph.num_ports, dtype=np.complex128)
    for (ia, ib), s1, s2 in zip(machine.slot_indices, w1, w2):
        i1 = ia if s1 == "a" else ib
        if s1 == s2:
            amps[i1] = alpha
        else:
            i2 = ia if s2 == "a" else ib
            amps[i1] += a1
            amps[i2] += a2
    return amps


def reference_unitarity_defect(matrix: np.ndarray) -> float:
    """``max |U†U - I|`` of one block, formed whole in one product.

    An oracle for ``coins.unitarity_defect``, which forms it in panels of
    rows over a stack of blocks.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


def reference_coin_check(graph: PortGraph, matrices) -> None:
    """The checks of a ``CoinAssignment``, one vertex at a time in vertex order.

    An oracle for the constructor, which checks unitarity once per degree
    class: each block's shape, then its unitarity, so the lowest vertex
    failing either check is the one named.
    """
    for v, m in enumerate(matrices):
        block = np.asarray(m, dtype=np.complex128)
        d = graph.degree(v)
        if block.shape != (d, d):
            raise ValueError(f"coin at vertex {v} has shape {block.shape}, degree is {d}")
        defect = reference_unitarity_defect(block)
        if not defect <= 1e-12:
            raise NonUnitaryError(defect, f"coin at vertex {v}")


def outcome(parse, *args):
    """What ``parse`` returns, as bytes or text, or the message of the ``ValueError`` it raises."""
    try:
        result = parse(*args)
    except ValueError as error:
        return str(error)
    if isinstance(result, PortGraph):
        return result.to_edge_lines()
    if isinstance(result, WalkState):
        return result.amplitudes.tobytes()
    return [block.tobytes() for block in result]


def reference_edge_lines(text: str) -> PortGraph:
    """An edge-list file read one line at a time; an oracle for ``PortGraph.from_edge_lines``."""
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"line {lineno}: vertex ids must be integers, got {raw!r}") from None
        if min(u, v) < 0:
            raise ValueError(f"line {lineno}: vertex ids must be non-negative")
        edges.append((u, v))
    return PortGraph(edges)


def reference_coin_blocks(graph: PortGraph, text: str) -> list[np.ndarray]:
    """The blocks of a coin file in vertex order, read one cell at a time.

    An oracle for the coin file parser: the same header checks, and for
    each cell one ``split(",")``, two ``float`` calls and one ``complex``.
    """
    matrices: dict[int, np.ndarray] = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "v" or len(parts) != 3:
            raise ValueError(f"line {i}: expected 'v <id> <degree>', got {line!r}")
        try:
            v, d = int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"line {i}: bad block header {line!r}") from None
        if not 0 <= v < graph.num_vertices:
            raise ValueError(f"line {i}: graph has no vertex {v}")
        if v in matrices:
            raise ValueError(f"line {i}: second coin block for vertex {v}")
        if d < 0:
            raise ValueError(f"line {i}: negative degree {d} for vertex {v}")
        if d != graph.degree(v):
            raise ValueError(
                f"line {i}: coin block {v} has degree {d}, vertex has {graph.degree(v)}"
            )
        block = np.zeros((d, d), dtype=np.complex128)
        for r in range(d):
            if i >= len(lines):
                raise ValueError(f"line {i}: unexpected end of coin block {v}")
            row = lines[i].strip().split()
            i += 1
            if len(row) != d:
                raise ValueError(
                    f"line {i}: coin block {v} row has {len(row)} entries, wanted {d}"
                )
            for cidx, cell in enumerate(row):
                try:
                    re_s, im_s = cell.split(",")
                    block[r, cidx] = complex(float(re_s), float(im_s))
                except ValueError:
                    raise ValueError(f"line {i}: bad complex entry {cell!r}") from None
        matrices[v] = block
    missing = [v for v in graph.vertices if v not in matrices]
    if missing:
        raise ValueError(f"coin file is missing blocks for vertices {missing}")
    return [matrices[v] for v in graph.vertices]


def reference_coin_text(coins: CoinAssignment) -> str:
    """A coin file written one entry at a time.

    An oracle for ``CoinAssignment.to_text``: each entry is two ``float``
    conversions and two ``repr`` calls, each row one ``join``.
    """
    out = []
    for v, m in enumerate(coins.matrices):
        out.append(f"v {v} {m.shape[0]}\n")
        for row in m:
            out.append(" ".join(f"{float(x.real)!r},{float(x.imag)!r}" for x in row) + "\n")
    return "".join(out)


def reference_state_text(state: WalkState) -> str:
    """A state file written one amplitude at a time; an oracle for ``walk.state_to_text``."""
    return "".join(f"{float(a.real)!r},{float(a.imag)!r}\n" for a in state.amplitudes)


def reference_state_from_text(graph: PortGraph, text: str) -> WalkState:
    """A state file read one line at a time, each cell on its own.

    An oracle for ``walk.state_from_text``.
    """
    amps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            re_s, im_s = line.split(",")
            amps.append(complex(float(re_s), float(im_s)))
        except ValueError:
            raise ValueError(f"line {lineno}: bad amplitude {raw!r}") from None
    if len(amps) != graph.num_ports:
        raise ValueError(
            f"state file has {len(amps)} amplitudes, graph has {graph.num_ports} ports"
        )
    with np.errstate(over="ignore"):
        return WalkState(graph, np.array(amps, dtype=np.complex128))


def reference_vertex_probabilities(state) -> np.ndarray:
    """Per-vertex probabilities by a loop over vertices, one ``np.vdot`` of each slice.

    A bit-identity oracle for ``walk.all_vertex_probabilities``, independent
    of ``walk.vertex_masses``: a contiguous slice's ``np.vdot`` is BLAS ``zdotc``.
    """
    graph, amps = state.graph, state.amplitudes
    out = []
    for v in graph.vertices:
        ports = amps[graph.offset(v): graph.offset(v) + graph.degree(v)]
        out.append(np.vdot(ports, ports).real)
    return np.array(out)


def closed_form_acceptance(machine, word: str) -> float:
    """Acceptance of ``word`` by the machine's construction rule, in closed form.

    The one statement of each family's rule, an oracle for ``word_acceptance``:

    * spatial: per hub pair, 2/n when both of its rails are populated,
      1/(2n) when one is, 0 otherwise; an odd n's surplus symbol adds nothing.
      spatial-eq pairs positions j and m + j, spatial-ab 2j and 2j + 1.
    * seq-ab: 1/2 + (number of 'ab' substrings) / n.
    * seq-eq: 1/2 + #{k : a at k, b at k + m} / n, with m = max(1, n // 2).
    * seq-word: (number of positions matching ``machine.member``) / n.
    """
    n, m = len(word), len(word) // 2
    if machine.family == "seq-word":
        return sum(x == y for x, y in zip(word, machine.member)) / n
    if machine.family in ("seq-ab", "seq-eq"):
        d = 1 if machine.family == "seq-ab" else max(1, m)
        return 0.5 + sum(word[k] == "a" and word[k + d] == "b" for k in range(n - d)) / n
    if machine.family == "spatial-eq":
        pairs = [(j, m + j) for j in range(m)]
    else:
        pairs = [(2 * j, 2 * j + 1) for j in range(m)]
    rule = (0.0, 1 / (2 * n), 2 / n)
    return sum(rule[(word[i] == "a") + (word[k] == "b")] for i, k in pairs)
