"""Seeded inputs, operation lists and oracles of the four workloads.

Everything here is a function of ``--seed``: the same seed gives the
same warehouses, the same operation lists and the same expected
answers.  The served program receives only the generated inputs.

The oracles use nothing but public entry points that are *not* the
path being measured: ``Query.parse(body).run(target)`` (the dynamic
matcher) plus Python set algebra for reads, and
``Delta.apply_to`` + a cold ``Morphase.transform`` for final states.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
import urllib.parse
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.adapters.acedb import AceDatabase, schema_of_acedb
from repro.evolution.delta import Delta, delta_to_json
from repro.io.json_io import dump_oid_encoder, instance_to_json, value_to_json
from repro.model.values import Oid, Record, WolSet
from repro.morphase import Morphase
from repro.program import parse_program_text
from repro.query.query import Query
from repro.semantics import merge_instances
from repro.workloads import cities, genome, relibase

# ----------------------------------------------------------------------
# Frozen sizes and operation counts.  Changing any of these changes the
# ruler: re-record benchmarks/e2e/baseline.json in the same change.
# ----------------------------------------------------------------------

#: Genome warehouse at 4x the other benchmarks' default size
#: (~3 000 source objects, /target ~1.2 MB).
GENOME_SIZE = {"genes": 600, "sequences": 1200, "clones": 1200,
               "sparsity": 0.9}
RELIBASE_SIZE = {"proteins": 300, "structures_per_protein": 3,
                 "ligands": 60, "bindings": 900}
CITIES_SIZE = {"states": 60, "cities_per_state": 6,
               "countries": 200, "cities_per_country": 6}

#: Operations in one round (the unit of fixed, comparable work; a run
#: repeats whole rounds until ``--seconds`` is used up).
#: Calibrated on the 2-core reference box to ~4 s of measured window
#: per round, so that a 28 s run holds four to five rounds (and as
#: many set-ups).
ROUND_OPS = {
    "batch_rebuild": 1,     # cold passes over the three warehouses
    "serve_read": 240,      # reads, split over the lanes
    "serve_ingest": 400,    # deltas, split over the lanes (+ recover
                            # + snapshot)
    "serve_mixed": 280,     # requests in write->read pairs, split
                            # over the lanes
}
#: Logical request lanes (writers with disjoint key spaces); client
#: connections are min(LANES, cores) and share the lanes between them.
LANES = 2
WARMUP_DELTAS = 20
#: ``--smoke`` divides the round sizes by this.
SMOKE_DIVISOR = 20
#: Share of one round's operation list the traced replay runs.
TRACE_FRACTION = 1 / 3

WORKLOADS = ("batch_rebuild", "serve_read", "serve_ingest", "serve_mixed")


def round_ops(workload: str, smoke: bool) -> int:
    count = ROUND_OPS[workload]
    if smoke and workload != "batch_rebuild":
        count = max(LANES * 4, count // SMOKE_DIVISOR)
    return count


# ----------------------------------------------------------------------
# Warehouses
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Warehouse:
    """One bundled transformation: how to build it and its sources."""

    name: str
    build: Callable[[], Morphase]
    sources: Callable[[int], List[Any]]


def _genome_morphase() -> Morphase:
    source_schema = schema_of_acedb(
        AceDatabase("ACe22", genome.ACE_CLASSES))
    return Morphase([source_schema], genome.warehouse_schema(),
                    genome.PROGRAM_TEXT)


def _genome_sources(seed: int) -> List[Any]:
    return [genome.source_instance(
        genome.generate_acedb(seed=seed, **GENOME_SIZE))]


def _relibase_morphase() -> Morphase:
    return Morphase([relibase.swissprot_schema(), relibase.pdb_schema()],
                    relibase.relibase_schema(), relibase.PROGRAM_TEXT)


def _relibase_sources(seed: int) -> List[Any]:
    return list(relibase.generate_sources(seed=seed, **RELIBASE_SIZE))


def _cities_morphase() -> Morphase:
    return Morphase([cities.us_schema(), cities.euro_schema()],
                    cities.target_schema(), cities.PROGRAM_TEXT)


def _cities_sources(seed: int) -> List[Any]:
    size = CITIES_SIZE
    return [cities.generate_us_instance(size["states"],
                                        size["cities_per_state"],
                                        seed=seed),
            cities.generate_euro_instance(size["countries"],
                                          size["cities_per_country"],
                                          seed=seed)]


GENOME = Warehouse("genome", _genome_morphase, _genome_sources)
WAREHOUSES = (GENOME,
              Warehouse("relibase", _relibase_morphase, _relibase_sources),
              Warehouse("cities", _cities_morphase, _cities_sources))


def canonical_dump(document: Any) -> str:
    """The byte-exact form digests and equality checks are taken over."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def dump_digest(document: Any) -> str:
    return hashlib.sha256(canonical_dump(document).encode()).hexdigest()


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One HTTP request of an operation list."""

    kind: str        # query | program | target | check | ingest
    key: str         # identifies the expected answer
    method: str
    path: str
    body: Optional[bytes] = None


#: The repeated read pool: 1-row index probe -> full scan, 2-hop
#: reference join, link-class join, comparison filter, ``project=``.
READ_POOL: Tuple[Tuple[str, str, Optional[str]], ...] = (
    ("probe", 'N, L | S in SequenceT, S.name = "S17", N = S.name, '
              'L = S.dna_length', None),
    ("scan", "N, L | S in SequenceT, N = S.name, L = S.dna_length", None),
    ("join2", "C, N, Y | X in CloneT, C = X.name, S = X.seq, N = S.name, "
              "P in SeqGene, P.seq = S, G = P.gene, Y = G.symbol", None),
    ("link", "N, Y | P in SeqGene, S = P.seq, G = P.gene, N = S.name, "
             "Y = G.symbol", None),
    ("cmp", "N, L | S in SequenceT, N = S.name, L = S.dna_length, "
            "L < 20000", None),
    ("project", "X in CloneT, N = X.name, P = X.map_position, "
                "L = X.length", "N,P"),
)

#: The dynamic matcher runs ``join2`` as a nested loop (seconds at this
#: size), so its oracle is the Python hash join, on S, of two bodies
#: the matcher answers quickly.
JOIN2_ORACLE = ("C, N, S | X in CloneT, C = X.name, S = X.seq, N = S.name",
                "S, Y | P in SeqGene, S = P.seq, G = P.gene, Y = G.symbol")

#: The parameterised family: one body per sequence name, so the query
#: text is rarely repeated (a plan cache keyed on text cannot help).
FAMILY_BODY = ('N, L, M | S in SequenceT, S.name = "{name}", N = S.name, '
               "L = S.dna_length, M = S.method")
FAMILY_ALL = "N, L, M | S in SequenceT, N = S.name, L = S.dna_length, " \
             "M = S.method"

_Q = {
    "cloned": "N | C in CloneT, S = C.seq, N = S.name",
    "genic": "N | P in SeqGene, S = P.seq, N = S.name",
    "named": "N | S in SequenceT, N = S.name",
    "short": "N | S in SequenceT, N = S.name, L = S.dna_length, L < 50000",
    "shotgun": 'N | S in SequenceT, N = S.name, M = S.method, '
               'M = "shotgun"',
}

#: Query programs of 2 / 6 / 10 statements, as (name, op, arguments).
PROGRAMS: Dict[str, Tuple[Tuple[str, str, Any], ...]] = {
    "p2": (("named", "query", _Q["named"]),
           ("top", "limit", ("named", 100))),
    "p6": (("cloned", "query", _Q["cloned"]),
           ("genic", "query", _Q["genic"]),
           ("named", "query", _Q["named"]),
           ("core", "intersect", ("cloned", "genic")),
           ("rest", "difference", ("named", "core")),
           ("all", "union", ("core", "rest"))),
    "p10": (("cloned", "query", _Q["cloned"]),
            ("genic", "query", _Q["genic"]),
            ("named", "query", _Q["named"]),
            ("short", "query", _Q["short"]),
            ("shotgun", "query", _Q["shotgun"]),
            ("core", "intersect", ("cloned", "genic")),
            ("cheap", "intersect", ("short", "shotgun")),
            ("pick", "union", ("core", "cheap")),
            ("rest", "difference", ("named", "pick")),
            ("top", "limit", ("rest", 200))),
}


def program_text(name: str) -> str:
    lines = [f"program {name};"]
    for target, op, args in PROGRAMS[name]:
        if op == "query":
            lines.append(f"{target} = query {{ {args} }};")
        elif op == "limit":
            lines.append(f"{target} = limit {args[0]} {args[1]};")
        else:
            lines.append(f"{target} = {op} {', '.join(args)};")
    return "\n".join(lines) + "\n"


def _query_op(key: str, body: str, project: Optional[str]) -> Op:
    path = "/query?body=" + urllib.parse.quote(body)
    if project:
        path += "&project=" + urllib.parse.quote(project)
    return Op("query", key, "GET", path)


@functools.lru_cache(maxsize=None)
def _program_ops() -> Dict[str, Op]:
    """Each program once as text and once as canonical AST (callers
    only read the shared dict)."""
    ops = {}
    for name in PROGRAMS:
        text = program_text(name)
        ast = parse_program_text(text).to_json()
        ops[f"{name}:text"] = Op(
            "program", name, "POST", "/program",
            json.dumps({"text": text}).encode())
        ops[f"{name}:ast"] = Op(
            "program", name, "POST", "/program",
            json.dumps({"ast": ast}).encode())
    return ops


def _quotas(count: int, shares: Sequence[Tuple[str, float]]) -> List[str]:
    """``count`` labels in exactly the given proportions (largest
    remainder), so that every seed runs the same mix and only the order
    and the parameters differ."""
    exact = [(label, share * count) for label, share in shares]
    labels = [label for label, amount in exact for _ in range(int(amount))]
    leftovers = sorted(exact, key=lambda item: item[1] - int(item[1]),
                       reverse=True)
    for label, _amount in leftovers[:count - len(labels)]:
        labels.append(label)
    return labels


READ_MIX = (("pool", 0.30), ("family", 0.30), ("program", 0.25),
            ("target", 0.10), ("check", 0.05))


def read_ops(seed: int, lane: int, count: int,
             with_check: bool = True) -> List[Op]:
    """A seeded read list: 60 % queries (half from the repeated pool,
    half from the parameterised family), 25 % programs, 10 % /target,
    5 % /check — or the same mix without /check, renormalised.  The
    proportions are exact; the seed shuffles the order and draws the
    family's names."""
    rng = random.Random(f"reads-{seed}-{lane}")
    programs = list(_program_ops().values())
    names = GENOME_SIZE["sequences"]
    mix = READ_MIX if with_check else READ_MIX[:-1]
    total = sum(share for _label, share in mix)
    kinds = _quotas(count, [(label, share / total) for label, share in mix])
    rng.shuffle(kinds)
    turn = {"pool": rng.randrange(len(READ_POOL)),
            "program": rng.randrange(len(programs))}
    ops: List[Op] = []
    for kind in kinds:
        if kind == "pool":      # round-robin: every body equally often
            key, body, project = READ_POOL[turn["pool"] % len(READ_POOL)]
            turn["pool"] += 1
            ops.append(_query_op(f"pool:{key}", body, project))
        elif kind == "family":
            # cubed uniform: skewed towards low indices, yet most of
            # the draws of one round are still distinct texts
            name = f"S{int(names * rng.random() ** 3)}"
            ops.append(_query_op(f"fam:{name}",
                                 FAMILY_BODY.format(name=name), None))
        elif kind == "program":
            ops.append(programs[turn["program"] % len(programs)])
            turn["program"] += 1
        elif kind == "target":
            ops.append(Op("target", "target", "GET", "/target"))
        else:
            ops.append(Op("check", "check", "GET", "/check"))
    return ops


def warmup_reads() -> List[Op]:
    """Each distinct repeated read once (fills the server's caches)."""
    ops = [_query_op(f"pool:{key}", body, project)
           for key, body, project in READ_POOL]
    ops.append(_query_op("fam:S1", FAMILY_BODY.format(name="S1"), None))
    ops.extend(_program_ops().values())
    ops.append(Op("target", "target", "GET", "/target"))
    ops.append(Op("check", "check", "GET", "/check"))
    return ops


# ----------------------------------------------------------------------
# Deltas
# ----------------------------------------------------------------------

DELTA_MIX = (("insert", 0.4), ("update", 0.4), ("delete", 0.2))


class DeltaWriter:
    """Generates one lane's delta list against an evolving instance.

    A lane inserts under its own tag prefix and touches only the
    original objects whose index is congruent to the lane, so lanes
    never conflict and the final state does not depend on how their
    requests interleave.  Every delta is applied to ``instance`` as it
    is generated, which both supplies current values for updates and
    yields the final-state oracle.
    """

    def __init__(self, instance, rng: random.Random, lane: int,
                 prefix: str) -> None:
        self.instance = instance
        self.rng = rng
        self.prefix = prefix
        sizes = GENOME_SIZE

        def owned(kind: str, letter: str, count: int) -> List[Oid]:
            return [Oid.keyed(kind, f"{letter}{i}")
                    for i in range(lane, count, LANES)]

        self.genes = owned("Gene", "G", sizes["genes"])
        self.sequences = owned("Sequence", "S", sizes["sequences"])
        self.clones = owned("Clone", "C", sizes["clones"])
        self.inserted: List[Tuple[str, bool]] = []   # (tag, has clone)
        self.counter = 0

    def deltas(self, count: int, mix=DELTA_MIX) -> List[Delta]:
        """``count`` deltas in exactly the proportions of ``mix``
        (default 40 % inserts, 40 % updates, 20 % deletes), in seeded
        order."""
        kinds = _quotas(count, mix)
        self.rng.shuffle(kinds)
        made = []
        for kind in kinds:
            delta = getattr(self, "_" + kind)()
            self.instance = delta.apply_to(self.instance)
            made.append(delta)
        return made

    def _insert(self) -> Delta:
        tag = f"{self.prefix}{self.counter}"
        self.counter += 1
        gene = Oid.keyed("Gene", f"G-{tag}")
        seq = Oid.keyed("Sequence", f"S-{tag}")
        inserts = {
            "Gene": {gene: Record.of(
                name=f"G-{tag}", symbol=WolSet.of(f"sym-{tag}"),
                description=WolSet.of(f"gene {tag}"))},
            "Sequence": {seq: Record.of(
                name=f"S-{tag}",
                dna_length=WolSet.of(self.rng.randrange(1_000, 200_000)),
                method=WolSet.of("shotgun"), gene=WolSet.of(gene))},
        }
        has_clone = self.rng.random() < 0.3
        if has_clone:
            clone = Oid.keyed("Clone", f"C-{tag}")
            inserts["Clone"] = {clone: Record.of(
                name=f"C-{tag}", map_position=WolSet.of("22q12"),
                length=WolSet.of(self.rng.randrange(30_000, 250_000)),
                seq=WolSet.of(seq))}
        self.inserted.append((tag, has_clone))
        return Delta(inserts=inserts)

    def _update(self) -> Delta:
        """Rewrite one scalar-or-set tag of an owned existing object."""
        rng = self.rng
        kind = rng.choice(("Gene", "Sequence", "Clone"))
        if kind == "Gene":
            oid = rng.choice(self.genes)
            label, value = "description", WolSet.of(
                f"revised {rng.randrange(10**6)}")
        elif kind == "Sequence":
            oid = rng.choice(self.sequences)
            if rng.random() < 0.5:
                label, value = "dna_length", WolSet.of(
                    rng.randrange(1_000, 200_000))
            else:
                label, value = "method", WolSet.of(
                    rng.choice(("shotgun", "walking", "pcr")))
        else:
            oid = rng.choice(self.clones)
            label, value = "length", WolSet.of(
                rng.randrange(30_000, 250_000))
        current = self.instance.value_of(oid)
        if current.get(label) == value:
            value = WolSet.of()     # still a change: clear the tag
        return Delta(updates={kind: {oid: current.with_field(label, value)}})

    def _delete(self) -> Delta:
        """Delete a leaf clone, or everything an earlier insert added."""
        if self.inserted and self.rng.random() < 0.5:
            tag, has_clone = self.inserted.pop(
                self.rng.randrange(len(self.inserted)))
            deletes = {"Gene": (Oid.keyed("Gene", f"G-{tag}"),),
                       "Sequence": (Oid.keyed("Sequence", f"S-{tag}"),)}
            if has_clone:
                deletes["Clone"] = (Oid.keyed("Clone", f"C-{tag}"),)
            return Delta(deletes=deletes)
        clone = self.clones.pop(self.rng.randrange(len(self.clones)))
        return Delta(deletes={"Clone": (clone,)})


def ingest_op(delta: Delta, key: str) -> Op:
    return Op("ingest", key, "POST", "/ingest",
              json.dumps(delta_to_json(delta)).encode())


@dataclass
class ServePlan:
    """Everything one serve workload needs, derived from the seed."""

    warmup: List[Op]                 # deltas then reads, one connection
    lanes: List[List[Op]]            # the measured operation lists
    source_objects: int
    final_target: Dict[str, Any]     # expected /target after all lanes
    read_oracle: Optional["ReadOracle"]   # serve_read only


def plan_serve(workload: str, seed: int, smoke: bool) -> ServePlan:
    """Build the operation lists and the oracle of one serve workload."""
    morphase = GENOME.build()
    base = merge_instances("__source__", GENOME.sources(seed))
    source_objects = base.size()
    warm_writer = DeltaWriter(base, random.Random(f"warm-{seed}"), 0, "wu")
    # warm-up inserts only: the lanes own every existing object
    warmup = [ingest_op(delta, f"warm:{i}") for i, delta in enumerate(
        warm_writer.deltas(WARMUP_DELTAS, (("insert", 1.0),)))]
    warmup.extend(warmup_reads())
    current = warm_writer.instance

    count = round_ops(workload, smoke)
    per_lane = count // LANES
    lanes: List[List[Op]] = []
    if workload == "serve_read":
        lanes = [read_ops(seed, lane, per_lane) for lane in range(LANES)]
    else:
        writes = per_lane // 2 if workload == "serve_mixed" else per_lane
        for lane in range(LANES):
            writer = DeltaWriter(current,
                                 random.Random(f"deltas-{seed}-{lane}"),
                                 lane, f"w{lane}-")
            deltas = [ingest_op(delta, f"{lane}:{i}")
                      for i, delta in enumerate(writer.deltas(writes))]
            current = writer.instance
            if workload == "serve_mixed":
                reads = read_ops(seed, lane, writes, with_check=False)
                deltas = [op for pair in zip(deltas, reads) for op in pair]
            lanes.append(deltas)
    target = morphase.transform([current]).target
    final_target = instance_to_json(target)
    read_oracle = (ReadOracle(target, final_target)
                   if workload == "serve_read" else None)
    return ServePlan(warmup=warmup, lanes=lanes,
                     source_objects=source_objects,
                     final_target=final_target, read_oracle=read_oracle)


# ----------------------------------------------------------------------
# Read oracle (dynamic matcher + Python set algebra)
# ----------------------------------------------------------------------

class ReadOracle:
    """Expected answers for reads against one fixed target.

    Rows are the service's canonical row sets recomputed the slow way:
    every WOL body runs through ``Query.run`` (the dynamic matcher, no
    planner, no indexes), rows are JSON-encoded with the dump's oid
    labels, de-duplicated and ordered by their sorted-key encoding, and
    program algebra is Python dict algebra over those keys.
    """

    def __init__(self, target, target_document: Dict[str, Any]) -> None:
        self.target = target
        self.target_document = target_document
        self.classes = target.schema.class_names()
        self.encoder = dump_oid_encoder(target)
        self._cache: Dict[str, Any] = {}
        self._family: Optional[Dict[str, List[Dict[str, Any]]]] = None

    def _rows(self, text: str) -> Dict[str, Dict[str, Any]]:
        keyed: Dict[str, Dict[str, Any]] = {}
        query = Query.parse(text, classes=self.classes)
        for row in query.run(self.target):
            encoded = {name: value_to_json(value, self.encoder)
                       for name, value in row.items()}
            keyed.setdefault(json.dumps(encoded, sort_keys=True), encoded)
        return keyed

    @staticmethod
    def _ordered(keyed: Dict[str, Dict[str, Any]]) -> List[Dict[str, Any]]:
        return [keyed[key] for key in sorted(keyed)]

    def _family_rows(self, name: str) -> List[Dict[str, Any]]:
        if self._family is None:
            grouped: Dict[str, Dict[str, Dict[str, Any]]] = {}
            for key, row in self._rows(FAMILY_ALL).items():
                grouped.setdefault(row["N"], {})[key] = row
            self._family = {n: self._ordered(rows)
                            for n, rows in grouped.items()}
        return self._family.get(name, [])

    def _join2_rows(self) -> Dict[str, Dict[str, Any]]:
        left, right = (self._rows(body) for body in JOIN2_ORACLE)
        by_sequence: Dict[str, List[Any]] = {}
        for row in right.values():
            by_sequence.setdefault(canonical_dump(row["S"]),
                                   []).append(row["Y"])
        keyed: Dict[str, Dict[str, Any]] = {}
        for row in left.values():
            for symbol in by_sequence.get(canonical_dump(row["S"]), ()):
                joined = {"C": row["C"], "N": row["N"], "Y": symbol}
                keyed[json.dumps(joined, sort_keys=True)] = joined
        return keyed

    def _program_rows(self, name: str) -> List[Dict[str, Any]]:
        sets: Dict[str, Dict[str, Dict[str, Any]]] = {}
        for target, op, args in PROGRAMS[name]:
            if op == "query":
                sets[target] = self._rows(args)
            elif op == "limit":
                source = sets[args[0]]
                sets[target] = {key: source[key]
                                for key in sorted(source)[:args[1]]}
            elif op == "union":
                merged: Dict[str, Dict[str, Any]] = {}
                for source in args:
                    merged.update(sets[source])
                sets[target] = merged
            elif op == "intersect":
                first, *rest = args
                sets[target] = {
                    key: row for key, row in sets[first].items()
                    if all(key in sets[other] for other in rest)}
            elif op == "difference":
                left, right = args
                sets[target] = {key: row for key, row in sets[left].items()
                                if key not in sets[right]}
            else:
                raise ValueError(f"unknown program op {op!r}")
        return self._ordered(sets[PROGRAMS[name][-1][0]])

    def expected(self, kind: str, key: str) -> Any:
        """What the ``result`` of a correct response must contain."""
        cache_key = f"{kind}/{key}"
        if cache_key not in self._cache:
            if kind == "target":
                value = self.target_document
            elif kind == "check":
                value = {"ok": True, "count": 0, "violations": []}
            elif kind == "program":
                value = self._program_rows(key)
            elif key.startswith("fam:"):
                value = self._family_rows(key[4:])
            elif key == "pool:join2":
                value = self._ordered(self._join2_rows())
            else:
                body, project = next(
                    (b, p) for k, b, p in READ_POOL if f"pool:{k}" == key)
                value = self._ordered(self._rows(
                    f"{project} | {body}" if project else body))
            self._cache[cache_key] = value
        return self._cache[cache_key]

    def matches(self, kind: str, key: str, result: Any) -> bool:
        expected = self.expected(kind, key)
        if kind in ("query", "program"):
            result = result.get("rows")
        return canonical_dump(result) == canonical_dump(expected)


def lane_share(lanes: Sequence[Sequence[Op]], fraction: float
               ) -> List[Op]:
    """The leading share of lane 0 — what the traced replay runs."""
    lane = lanes[0]
    keep = min(len(lane), max(2, int(len(lane) * LANES * fraction)))
    keep -= keep % 2        # whole write->read pairs
    return list(lane[:keep])
