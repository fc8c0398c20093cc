"""The benchmark's workloads: inputs, CLI arguments and output checks.

Each workload is one ``walklang`` CLI command at a fixed size.  The
checks here never import ``walklang``: every output is compared with the
sha256 recorded for it and with a closed-form oracle written from the
paper's acceptance and fidelity rules, so a wrong engine cannot vouch for
itself.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ORACLE_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    items: str
    size: int
    smoke_size: int
    size_is: str
    output_file: str
    # (walklang, workdir, size, seed) -> CLI argv; runs in the set-up process
    prepare: Callable
    # (text, size, seed, workdir) -> (items, worst oracle error, problems)
    oracle: Callable


def word_for_seed(seed: int, n: int) -> str:
    """The replay word: n symbols drawn from the workload seed."""
    bits = random.Random(seed).getrandbits(n)
    return "".join("ab"[(bits >> k) & 1] for k in range(n))


def _words(length: int):
    for bits in range(2 ** length):
        yield format(bits, f"0{length}b").translate(str.maketrans("01", "ab"))


# ---------------------------------------------------------------------------
# sweep-seq: sweep --family seq-eq --max-len 12
# ---------------------------------------------------------------------------

def _prepare_sweep(walklang, workdir: Path, size: int, seed: int) -> list[str]:
    return ["sweep", "--family", "seq-eq", "--max-len", str(size),
            "--out", str(workdir / "out.csv")]


def _sweep_acceptance(word: str) -> float:
    # seq-eq rule: 1/2 + #{k : w_k = a, w_{k+m} = b} / n, m = max(1, n // 2)
    n = len(word)
    m = max(1, n // 2)
    hits = sum(1 for k in range(n - m) if word[k] == "a" and word[k + m] == "b")
    return 0.5 + hits / n


def _oracle_sweep(text: str, size: int, seed: int, workdir: Path):
    lines = text.splitlines()
    problems = []
    if not lines or lines[0] != "index,word,acceptance,jaro":
        return 0, 0.0, ["bad sweep header"]
    expected = [w for length in range(1, size + 1) for w in _words(length)]
    rows = lines[1:]
    if len(rows) != len(expected):
        problems.append(f"{len(rows)} rows, expected {len(expected)}")
    worst = 0.0
    for index, (row, word) in enumerate(zip(rows, expected), start=1):
        fields = row.split(",")
        if len(fields) != 4 or fields[0] != str(index) or fields[1] != word:
            problems.append(f"row {index} is {row!r}, expected word {word}")
            continue
        worst = max(worst, abs(float(fields[2]) - _sweep_acceptance(word)))
    return len(rows), worst, problems


# ---------------------------------------------------------------------------
# qinput: qinput --base aaaabbbb --eta-points 101
# ---------------------------------------------------------------------------

QINPUT_BASE = "aaaabbbb"


def _prepare_qinput(walklang, workdir: Path, size: int, seed: int) -> list[str]:
    return ["qinput", "--base", QINPUT_BASE, "--eta-points", str(size),
            "--out", str(workdir / "out.csv")]


def _oracle_qinput(text: str, size: int, seed: int, workdir: Path):
    lines = text.splitlines()
    header = [f"# eta-grid=amplitude-linear points={size}", "w2,eta,fidelity,match_count"]
    if lines[:2] != header:
        return 0, 0.0, ["bad qinput header"]
    n = len(QINPUT_BASE)
    expected = [
        (w2, i / (size - 1))
        for w2 in _words(n) if w2 != QINPUT_BASE
        for i in range(size)
    ]
    rows = lines[2:]
    problems = []
    if len(rows) != len(expected):
        problems.append(f"{len(rows)} rows, expected {len(expected)}")
    worst = 0.0
    for row, (w2, eta) in zip(rows, expected):
        fields = row.split(",")
        matches = sum(1 for x, y in zip(QINPUT_BASE, w2) if x == y)
        if len(fields) != 4 or fields[0] != w2 or fields[3] != str(matches):
            problems.append(f"row {row!r}, expected w2 {w2} with {matches} matches")
            continue
        # unitary evolution keeps the input overlap: ((n - d + eta d) / n)^2
        d = n - matches
        worst = max(
            worst,
            abs(float(fields[1]) - eta),
            abs(float(fields[2]) - ((n - d + eta * d) / n) ** 2),
        )
    return len(rows), worst, problems


# ---------------------------------------------------------------------------
# replay: simulate on an exported spatial-eq machine for word length 1000
# ---------------------------------------------------------------------------

def _prepare_replay(walklang, workdir: Path, size: int, seed: int) -> list[str]:
    from walklang.walk import state_to_text

    machine = walklang.spatial_eq(size // 2)
    paths = walklang.export_machine(machine, workdir)
    state = walklang.initial_state(machine, word_for_seed(seed, size))
    state_path = workdir / "state.txt"
    state_path.write_text(state_to_text(state))
    return ["simulate", "--graph", str(paths["graph"]), "--coins", str(paths["coins"]),
            "--state", str(state_path), "--steps", str(machine.steps)]


def _oracle_replay(text: str, size: int, seed: int, workdir: Path):
    probs = []
    problems = []
    for v, line in enumerate(text.splitlines()):
        fields = line.split()
        if len(fields) != 2 or fields[0] != str(v):
            problems.append(f"line {v + 1} is {line!r}")
            continue
        probs.append(float(fields[1]))
    accepting = [
        int(tok)
        for line in (workdir / "machine.txt").read_text().splitlines()
        if line.startswith("accepting ")
        for tok in line.split()[1:]
    ]
    # spatial-eq rule per hub j (a-rail j, b-rail m + j): both populated 1/m,
    # exactly one 1/(4m); with n = 2m that is (2 #both + #one / 2) / n
    word = word_for_seed(seed, size)
    m = size // 2
    pairs = [(word[j] == "a") + (word[m + j] == "b") for j in range(m)]
    expected = (2 * pairs.count(2) + 0.5 * pairs.count(1)) / size
    if len(accepting) != 1 or not 0 <= accepting[0] < len(probs):
        return len(probs), 0.0, problems + [f"accepting set {accepting} in machine.txt"]
    worst = max(abs(probs[accepting[0]] - expected), abs(sum(probs) - 1.0))
    return len(probs), worst, problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-seq",
            why="8,190 words, one tiny evolve each on ~100 ports: the many-small-states "
                "path; the only workload that builds machines and runs Jaro",
            items="words (CSV rows)",
            size=12, smoke_size=4, size_is="--max-len", output_file="out.csv",
            prepare=_prepare_sweep, oracle=_oracle_sweep,
        ),
        Workload(
            name="qinput",
            why="one machine, 25,756 quantum-encoded states and fidelities: the same "
                "engine through quantum encoding, no Jaro and no rebuilds",
            items="fidelity rows",
            size=101, smoke_size=3, size_is="--eta-points", output_file="out.csv",
            prepare=_prepare_qinput, oracle=_oracle_qinput,
        ),
        Workload(
            name="replay",
            why="simulate on an exported 4,001-vertex machine whose 1000x1000 coin is 10 MB "
                "of text and 16 MB in memory: parse, unitarity and RSS; evolve is 3 steps",
            items="output vertex lines",
            size=1000, smoke_size=8, size_is="word length", output_file="stdout.txt",
            prepare=_prepare_replay, oracle=_oracle_replay,
        ),
    )
}

# sha256 of the output bytes, recorded from the CLI at the commit that
# introduced this benchmark; keys are (workload, size) or, for replay,
# whose input depends on the seed, (workload, size, seed)
DIGESTS: dict[tuple, str] = {
    ("sweep-seq", 4): "ce9c1b37d5247de024144ea28fe13a02e3391dd9709de3614874615d99200362",
    ("qinput", 3): "f6736892034f9d63674a1505a37ffcfdea8fcaeaa90824f4f2c47e6ce0c54e2b",
    ("replay", 8, 0): "599231132b6cbf1a45aa4a7eeb78761035892fe77d4abd4ac0bd48cd195b748c",
    ("replay", 8, 1): "1c3bee81254ce78542147eed1ab1e14173fe594a6f296eafd24acd4161d382c9",
    ("replay", 8, 2): "69b29404126448e17b0b93308152925ff5d7c3e3a524970e1c199c0af7466f6d",
    ("replay", 8, 3): "45a739221031a363405889ad510f0cd6865a7551ff21e3579dc09347bae244c3",
    ("replay", 8, 4): "45a739221031a363405889ad510f0cd6865a7551ff21e3579dc09347bae244c3",
    ("replay", 8, 5): "3748e560552a992da77b11b396f1617fcce4a446120dd58f77e3e36d1c28c272",
    ("replay", 8, 6): "f22242548fd3202c1d1910ab906afecae928aaa25b451644fb64274e9a59c30a",
    ("replay", 8, 7): "bb30735b53d5ae0be83ffc9452368495d9b66886472de920a8708cf203110462",
    ("replay", 8, 8): "32759786ef5aa569d0b65ca89f5c143f6decf5829d7645cc2fae795106a029b4",
    ("replay", 8, 9): "d6c41603ca42f6d4fb13cf7a7108823cfdb4fbfe56a2ae72e90f5573b07c1532",
    ("replay", 8, 10): "a425c9a9ae82ddda324a006af9b0753fd11c35ad93aca94fd964108e757c3341",
    ("replay", 8, 11): "8e03158c49a4b9229576dc1ee72a7898320e13213c73f596abc1443ce70c6807",
    ("replay", 8, 12): "0cbcdd4521074854ffe94b11774160475183e5c4e17966e58fbd4cdc5aa511da",
    ("replay", 8, 13): "f92956a24f8484dbac5a60d95b5ba1d869ed34cb5b7625946b2b249c5fa2d361",
    ("replay", 8, 14): "090e699a6a451a3b30539cdb94c86be694d4ed0c5dad5c40970eb7fe2e8ff5b5",
    ("replay", 8, 15): "edc4d095931a9451650b430dfcbef42e43deb837548a75c97bb4073768f8714c",
    ("replay", 8, 16): "32759786ef5aa569d0b65ca89f5c143f6decf5829d7645cc2fae795106a029b4",
    ("replay", 8, 17): "4b2baa05bed458a23a0cc9c881ef738f243cc6f5aeeca142cf3301c296a547b4",
    ("replay", 8, 18): "d00ba82e691ac8a145962f54fe8ef6288b2041072188f16465e5b33ee92195cd",
    ("replay", 8, 19): "52f0a8f36cc6da08a21074737542072db7a9b29f9aa61444cea758810d7c1cf6",
    ("replay", 8, 20): "1b8c75045a9ddb8cf790678131c4a89baf31b0fb7032afb6337a4c06149c7020",
    ("replay", 1000, 0): "a079da6426317a620cb68732a9be717c4d41cd5a9a75d50752b5dba3cf44a0f4",
    ("replay", 1000, 1): "a6bbd47663861084150034b5285614b95759ef9080ff4b8ee009aaa503121650",
    ("replay", 1000, 2): "aaa4025bf20d3c05f57879b8843e6f07486f6787d69ecc1a30f29319f14bd2e6",
    ("replay", 1000, 3): "88f2fd361f919a707fa48a3e98efc3aca78ac85a2f09a2566335f39bd9ea5dd0",
    ("replay", 1000, 4): "a962a71d28c5d4232a08dd65e855abc9b652d767881a5d628b3cd1d422b8d0d5",
    ("replay", 1000, 5): "7937e3242238ad08201f2f4578d2bfcca3cbec83c6942a0aeb61b08a82e6dcd6",
    ("replay", 1000, 6): "ef6b554d51b006a7058822cb766cdc39b6c2a02c56ac34cc5a38221ac7a7b1e6",
    ("replay", 1000, 7): "d9cf5c11a2e343527478146e08aa3302ed1f24feffa84547789060125ea28006",
    ("replay", 1000, 8): "9c6cbb5a3b2c0255d7c06c4d2a93d80fdcf60c6831948c02008c9ca742f077c0",
    ("replay", 1000, 9): "bbf2226523a206e6b492c731fc63b5284d680b7d2bca62ace40e79f5872af843",
    ("replay", 1000, 10): "277bb25d407fb7902d2d132759c68ac8c6862c8b9b1d466a8c2e8f246158a0b3",
    ("replay", 1000, 11): "41a9a9f5f365b79d5e84d23bbe32be451415f5eca42d395c6768314d087d86a1",
    ("replay", 1000, 12): "bb263bb778e1c7af1a379a36827d79ef4309e9beff612b7ed3edb63989b0b879",
    ("replay", 1000, 13): "9aba9f53e0ebfda0d13b47d6f91f2780fb988fa0ddd37ab4508274da72435c6b",
    ("replay", 1000, 14): "aceb905ca96d1bc8b8c83b4cabbeab8a7e5c551854326c74eb1459106c9ea835",
    ("replay", 1000, 15): "127f3d0a37dccc3ca8aeb2c7d66686ec14244b652066d963b56b44fe0f14e4f3",
    ("replay", 1000, 16): "b0ff5e123d78cc0e6d145a7dfed9f1a578dda75943bed895db740be62aa0ca04",
    ("replay", 1000, 17): "c1d0916b2b698101166decd395d9aa37a84503ae60040ecf4a25d4144ca39276",
    ("replay", 1000, 18): "6cc34e5f5325d88114a599b87c18fb8a40f54b6207779f22863d001ddcd87822",
    ("replay", 1000, 19): "aa6686206abba691fc29501ec782ab769afa5bdd30115ff1b5a65512dc15aaf0",
    ("replay", 1000, 20): "34d01bf258bfceb3ebb13bb7d0e139fb5b49dbca458cbbe90572f454f40e33e8",
    ("sweep-seq", 12): "9505b73b5e7774d2d44b0ef6c148b7d664c39be942ee1fe1caf8c3fca45b57ae",
    ("qinput", 101): "c5891d09441df47de573beb2a23174916ce25c8b16553091ca61ab11a8ec66ec",
}


def check(workload: str, output: bytes, size: int, seed: int, workdir: Path) -> dict:
    """Digest and oracle check of one output; ``ok`` is False on any problem."""
    w = WORKLOADS[workload]
    digest = hashlib.sha256(output).hexdigest()
    recorded = DIGESTS.get((workload, size), DIGESTS.get((workload, size, seed)))
    try:
        items, worst, problems = w.oracle(
            output.decode("ascii", "replace"), size, seed, workdir
        )
    except (ValueError, IndexError, OSError) as exc:
        items, worst, problems = 0, 0.0, [f"oracle could not read the output: {exc}"]
    if recorded is not None and digest != recorded:
        problems = problems + [f"sha256 {digest[:16]} differs from recorded {recorded[:16]}"]
    if not worst <= ORACLE_TOL:
        problems = problems + [f"oracle error {worst:.3e} exceeds {ORACLE_TOL:g}"]
    return {
        "ok": not problems,
        "items": items,
        "oracle_worst": worst,
        "digest": digest,
        "digest_checked": recorded is not None,
        "problems": problems[:5],
    }
