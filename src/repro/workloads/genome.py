"""Synthetic genome-database workload (paper Section 6, experiment E7).

The paper's trials moved data between ACe22DB (an ACeDB tree database,
"sparsely populated") and Chr22DB (a Sybase relational database).  This
workload reproduces the *shape* of that task on synthetic data:

* an ACeDB-style source (:mod:`repro.adapters.acedb`) with ``Gene``,
  ``Sequence`` and ``Clone`` classes whose tags are sparsely populated;
* a warehouse-style target schema with required attributes, a reference
  chain ``CloneT -> SequenceT`` and a link class ``SeqGene`` reifying the
  sparse ``gene`` tag (the same reification move as Marriage in the
  schema-evolution example);
* a WOL program mapping one to the other.  Objects whose required tags are
  missing are *dropped* — the paper's "delete the objects" reading of an
  optional-to-required schema change (Section 1 discusses exactly this
  choice).
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..adapters.acedb import AceClass, AceDatabase, TagSpec, import_acedb
from ..adapters.relational import Column, TableSchema
from ..model.instance import Instance
from ..model.keys import KeyedSchema
from ..model.schema import parse_schema

#: The ACeDB class models for the synthetic ACe22DB.
ACE_CLASSES = (
    AceClass("Gene", (
        TagSpec("symbol", "str"),
        TagSpec("description", "str"),
    )),
    AceClass("Sequence", (
        TagSpec("dna_length", "int"),
        TagSpec("method", "str"),
        TagSpec("gene", "ref", "Gene"),
    )),
    AceClass("Clone", (
        TagSpec("map_position", "str"),
        TagSpec("length", "int"),
        TagSpec("seq", "ref", "Sequence"),
    )),
)

WAREHOUSE_SCHEMA_TEXT = """
schema Warehouse {
  class GeneT     = (symbol: str, description: str) key symbol;
  class SequenceT = (name: str, dna_length: int, method: str) key name;
  class CloneT    = (name: str, map_position: str, length: int,
                     seq: SequenceT) key name;
  class SeqGene   = (seq: SequenceT, gene: GeneT);
}
"""

PROGRAM_TEXT = """
-- Genes with a symbol and a description become warehouse genes (genes
-- missing either are dropped: the 'delete' reading of
-- optional-to-required).
transformation TG:
  X in GeneT, X.symbol = S, X.description = D
  <= G in Gene, S in G.symbol, D in G.description;

-- Fully-annotated sequences become warehouse sequences.
transformation TS:
  X in SequenceT, X.name = N, X.dna_length = L, X.method = M
  <= Q in Sequence, N = Q.name, L in Q.dna_length, M in Q.method;

-- Clones with a mapped, measured, sequenced record become warehouse
-- clones; the reference chain goes through the target SequenceT.
transformation TC:
  X in CloneT, X.name = N, X.map_position = P, X.length = L, X.seq = Y
  <= C in Clone, N = C.name, P in C.map_position, L in C.length,
     Q in C.seq, Y in SequenceT, Y.name = Q.name;

-- The sparse gene tag is reified into a link class.
transformation TL:
  M in SeqGene, M.seq = X, M.gene = Y
  <= Q in Sequence, G in Q.gene, S in G.symbol,
     X in SequenceT, X.name = Q.name, Y in GeneT, Y.symbol = S;

-- SeqGene is identified by the linked pair.
constraint KeySeqGene:
  M = Mk_SeqGene(seq = S, gene = G) <= M in SeqGene, S = M.seq,
                                       G = M.gene;
"""

#: Relational table schemas for exporting the warehouse (Chr22DB side).
WAREHOUSE_TABLES = (
    TableSchema("GeneT", (
        Column("symbol", "str"),
        Column("description", "str"),
    ), ("symbol",)),
    TableSchema("SequenceT", (
        Column("name", "str"),
        Column("dna_length", "int"),
        Column("method", "str"),
    ), ("name",)),
    TableSchema("CloneT", (
        Column("name", "str"),
        Column("map_position", "str"),
        Column("length", "int"),
        Column("seq", "str", references="SequenceT"),
    ), ("name",)),
    TableSchema("SeqGene", (
        Column("seq", "str", references="SequenceT"),
        Column("gene", "str", references="GeneT"),
    ), ("seq", "gene")),
)


def warehouse_schema() -> KeyedSchema:
    return parse_schema(WAREHOUSE_SCHEMA_TEXT)


def warehouse_constraints() -> List:
    """The warehouse's constraint library, as WOL clauses.

    Keys for every keyed class plus referential inclusion dependencies
    (``CloneT.seq`` and both ``SeqGene`` legs), derived from the schema —
    the audit workload for the planned constraint engine (transformed
    warehouses satisfy all of them; corrupted ones pinpoint violations).
    """
    from ..constraints.library import schema_constraints
    return schema_constraints(warehouse_schema())


def generate_acedb(genes: int, sequences: int, clones: int,
                   sparsity: float = 0.8, seed: int = 0) -> AceDatabase:
    """A synthetic ACe22DB.

    ``sparsity`` is the probability that an optional tag is populated
    (ACeDB data is sparsely populated; lower = sparser).  Every sequence
    references a random gene with that probability; every clone references
    a random sequence likewise.
    """
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError("sparsity must be within [0, 1]")
    rng = random.Random(seed)
    database = AceDatabase("ACe22", ACE_CLASSES)

    gene_names = [f"G{i}" for i in range(genes)]
    for name in gene_names:
        obj = database.new_object("Gene", name)
        obj.add("symbol", name.lower())
        if rng.random() < sparsity:
            obj.add("description", f"gene {name} description")

    seq_names = [f"S{i}" for i in range(sequences)]
    for name in seq_names:
        obj = database.new_object("Sequence", name)
        if rng.random() < sparsity:
            obj.add("dna_length", rng.randrange(1_000, 200_000))
        if rng.random() < sparsity:
            obj.add("method", rng.choice(["shotgun", "walking", "pcr"]))
        if gene_names and rng.random() < sparsity:
            obj.add_ref("gene", "Gene", rng.choice(gene_names))

    for index in range(clones):
        obj = database.new_object("Clone", f"C{index}")
        if rng.random() < sparsity:
            obj.add("map_position", f"22q{rng.randrange(11, 14)}")
        if rng.random() < sparsity:
            obj.add("length", rng.randrange(30_000, 250_000))
        if seq_names and rng.random() < sparsity:
            obj.add_ref("seq", "Sequence", rng.choice(seq_names))
    return database


def sample_acedb() -> AceDatabase:
    """A tiny, fully-populated ACe22DB for tests and the example."""
    database = AceDatabase("ACe22", ACE_CLASSES)
    g1 = database.new_object("Gene", "COMT")
    g1.add("symbol", "comt")
    g1.add("description", "catechol-O-methyltransferase")
    g2 = database.new_object("Gene", "SHANK3")
    g2.add("symbol", "shank3")
    g2.add("description", "SH3 and ankyrin repeat domains 3")

    s1 = database.new_object("Sequence", "AC000050")
    s1.add("dna_length", 40_000)
    s1.add("method", "shotgun")
    s1.add_ref("gene", "Gene", "COMT")
    s2 = database.new_object("Sequence", "AC000036")
    s2.add("dna_length", 35_000)
    s2.add("method", "walking")
    s2.add_ref("gene", "Gene", "SHANK3")
    s3 = database.new_object("Sequence", "AC000099")
    s3.add("dna_length", 10_000)
    s3.add("method", "pcr")  # no gene: sparse

    c1 = database.new_object("Clone", "c22_1")
    c1.add("map_position", "22q11")
    c1.add("length", 120_000)
    c1.add_ref("seq", "Sequence", "AC000050")
    c2 = database.new_object("Clone", "c22_2")
    c2.add("map_position", "22q13")
    c2.add("length", 90_000)
    c2.add_ref("seq", "Sequence", "AC000036")
    c3 = database.new_object("Clone", "c22_3")  # unmapped: sparse
    c3.add_ref("seq", "Sequence", "AC000099")
    return database


def source_instance(database: Optional[AceDatabase] = None) -> Instance:
    """Import an ACeDB database (default: the sample) into the WOL model."""
    return import_acedb(database or sample_acedb())
