"""The benchmark's workloads: operation lists made from the seed, the set-up
each needs, and how one operation runs.

`operations` uses only the standard library, so the parent process and the
output checks can rebuild the inputs without importing chargraph.  `Prepared`
and `run_op` run inside a worker interpreter that has imported chargraph.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
from pathlib import Path

WORKLOADS = ("catalog", "analyze")

# Per-operation deadlines, each well clear of the slowest operation that
# completes on that workload on a 2-core x86-64 VM (catalog: tens of ms;
# analyze: under 0.5 s).
DEADLINE_S = {"catalog": 2.0, "analyze": 10.0}

CATALOG_NS = (4, 5, 6, 7)
CATALOG_ALPHAS = range(2, 91)
CATALOG_HAMILTON_FS = range(2, 13)

# The analyze graph structures are fixed; the seed picks their prime labels
# (order-preserving, so the searches do the same work) and the order in which
# they are issued.  Search time per random graph is heavy-tailed, so graphs
# drawn afresh per seed would make the totals differ from seed to seed by far
# more than any bound.
ANALYZE_STRUCTURE_SEED = 2002
ANALYZE_KINDS = (
    # kind, graphs, vertex range, n as a function of order and the structure rng
    ("search", 60, (16, 19), lambda v, rng: (v + 5) // 2),  # 2n-5 is v or v-1
    ("clique", 20, (18, 22), lambda v, rng: rng.randint(6, 8)),  # the clique test decides
    ("large", 8, (26, 40), lambda v, rng: rng.randint(4, 6)),  # clique number >= n, over the cycle cap
)
ANALYZE_DENSITY = (0.80, 0.85)


@dataclasses.dataclass(frozen=True)
class Op:
    id: str
    kind: str
    args: tuple


def _label_pool(limit: int = 1000) -> list[int]:
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [p for p in range(3, limit) if flags[p]]


def _analyze_ops(seed: int) -> list[Op]:
    shape = random.Random(ANALYZE_STRUCTURE_SEED)
    structures = []
    for kind, count, (lo, hi), n_of in ANALYZE_KINDS:
        for i in range(count):
            v = lo + i % (hi - lo + 1)
            density = shape.uniform(*ANALYZE_DENSITY)
            edges = tuple((a, b) for a in range(v) for b in range(a + 1, v) if shape.random() < density)
            structures.append((f"{kind}{i:02d}", v, edges, n_of(v, shape)))
    rng = random.Random(seed)
    pool = _label_pool()
    ops = []
    for name, v, edges, n in structures:
        labels = sorted(rng.sample(pool, v))
        graph = (tuple(labels), tuple((labels[a], labels[b]) for a, b in edges))
        ops.append(Op(f"analyze {name} v={v} n={n}", "analyze", (graph, n)))
    rng.shuffle(ops)
    return ops


def operations(workload: str, seed: int) -> list[Op]:
    """The operations one pass of a workload issues, in order."""
    if workload == "catalog":
        # the order `verify --suite` sweeps in; the inputs are the documented range
        ops = [Op(f"sweep n={n} a={a}", "sweep", (n, a)) for n in CATALOG_NS for a in CATALOG_ALPHAS]
        return ops + [Op(f"hamilton_char f={f}", "hchar", (f,)) for f in CATALOG_HAMILTON_FS]
    if workload == "analyze":
        return _analyze_ops(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def graph_document(vertices, edges) -> dict:
    return {"vertices": list(vertices), "edges": [list(e) for e in edges]}


class Prepared:
    """Inputs ready to run, graph documents written, for the operations named
    in `keep` (all when None)."""

    def __init__(self, workload: str, seed: int, doc_dir: Path, keep=None) -> None:
        self.ops = [op for op in operations(workload, seed) if keep is None or op.id in keep]
        self.paths: dict[str, str] = {}
        if workload == "analyze":
            doc_dir.mkdir(parents=True, exist_ok=True)
            for i, op in enumerate(self.ops):
                path = doc_dir / f"g{i:03d}.json"
                path.write_text(json.dumps(graph_document(*op.args[0])))
                self.paths[op.id] = str(path)


class CliExit(Exception):
    """The CLI returned a non-zero exit code."""

    def __init__(self, code: int) -> None:
        super().__init__(f"exit {code}")
        self.code = code


def run_op(prepared: Prepared, op: Op):
    """Run one operation and return its output as JSON-ready data (the CLI's
    stdout text for analyze)."""
    import chargraph
    import chargraph.cli

    if op.kind == "sweep":
        n, a = op.args
        return [dataclasses.asdict(r) for r in chargraph.sweep_models(n, (a, a))]
    if op.kind == "hchar":
        return dataclasses.asdict(chargraph.verify_hamilton_characterization(op.args[0]))
    _, n = op.args
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = chargraph.cli.run(["--quiet", "analyze", "--n", str(n), "--input", prepared.paths[op.id]])
    if code != 0:
        raise CliExit(code)
    return out.getvalue()  # the exact bytes a CLI user sees, so the digest covers formatting
