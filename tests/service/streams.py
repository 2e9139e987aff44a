"""Seeded write streams over the genome and cities warehouses.

Each stream draws its next delta from the *live* source instance, so it
keeps working across a store reopen (anonymous oids are re-minted from
their durable labels then).  The genome stream mixes the benchmark's
writer shapes — 40 % inserts (a gene and its sequence, sometimes a
clone), 40 % single-tag updates, 20 % deletes; the cities stream does
the same over countries, their cities and US cities.  Names carry the
stream's tag, so no write ever makes a target surrogate key collide.
"""

import random

from repro.adapters.acedb import AceDatabase, schema_of_acedb
from repro.evolution.delta import Delta
from repro.model.values import Oid, Record, WolSet
from repro.morphase import Morphase
from repro.workloads import cities, genome

KINDS = ("insert", "insert", "update", "update", "delete")


def genome_morphase():
    return Morphase([schema_of_acedb(AceDatabase("ACe22",
                                                 genome.ACE_CLASSES))],
                    genome.warehouse_schema(), genome.PROGRAM_TEXT)


def genome_sources():
    return [genome.source_instance(genome.generate_acedb(
        genes=40, sequences=80, clones=80, sparsity=0.9, seed=7))]


def cities_morphase():
    return Morphase([cities.us_schema(), cities.euro_schema()],
                    cities.target_schema(), cities.PROGRAM_TEXT)


def cities_sources():
    return [cities.generate_us_instance(6, 3, seed=7),
            cities.generate_euro_instance(10, 4, seed=7)]


def _pick(instance, cname, rng, keep=lambda oid: True):
    extent = [oid for oid in sorted(instance.objects_of(cname), key=str)
              if keep(oid)]
    return rng.choice(extent) if extent else None


class GenomeStream:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"genome-{seed}")
        self.count = 0

    def next(self, instance) -> Delta:
        rng = self.rng
        self.count += 1
        tag = f"t{self.count}"
        kind = rng.choice(KINDS)
        if kind == "delete":
            clone = _pick(instance, "Clone", rng)
            if clone is not None:
                return Delta(deletes={"Clone": (clone,)})
        if kind == "update":
            cname, label, value = rng.choice((
                ("Gene", "description", WolSet.of(f"revised {tag}")),
                ("Sequence", "dna_length",
                 WolSet.of(rng.randrange(1_000, 200_000))),
                ("Sequence", "method", WolSet.of(
                    rng.choice(("shotgun", "walking", "pcr")))),
                ("Clone", "length",
                 WolSet.of(rng.randrange(30_000, 250_000)))))
            oid = _pick(instance, cname, rng)
            current = instance.value_of(oid)
            if current.get(label) == value:
                value = WolSet.of()  # still a change: clear the tag
            return Delta(updates={cname: {
                oid: current.with_field(label, value)}})
        return self.insert(tag)

    def insert(self, tag: str) -> Delta:
        """A new gene, its sequence and (30 %) a clone of it."""
        rng = self.rng
        gene = Oid.keyed("Gene", f"G-{tag}")
        seq = Oid.keyed("Sequence", f"S-{tag}")
        inserts = {
            "Gene": {gene: Record.of(
                name=f"G-{tag}", symbol=WolSet.of(f"sym-{tag}"),
                description=WolSet.of(f"gene {tag}"))},
            "Sequence": {seq: Record.of(
                name=f"S-{tag}",
                dna_length=WolSet.of(rng.randrange(1_000, 200_000)),
                method=WolSet.of("shotgun"), gene=WolSet.of(gene))}}
        if rng.random() < 0.3:
            inserts["Clone"] = {Oid.keyed("Clone", f"C-{tag}"): Record.of(
                name=f"C-{tag}", map_position=WolSet.of("22q12"),
                length=WolSet.of(rng.randrange(30_000, 250_000)),
                seq=WolSet.of(seq))}
        return Delta(inserts=inserts)


class CitiesStream:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"cities-{seed}")
        self.count = 0

    def next(self, instance) -> Delta:
        rng = self.rng
        self.count += 1
        tag = f"t{self.count}"
        kind = rng.choice(KINDS)
        if kind == "delete":
            # a city that is no state's or country's capital: every
            # target state and country needs one
            capitals = {instance.value_of(state).get("capital")
                        for state in instance.objects_of("StateA")}
            capitals.update(
                city for city in instance.objects_of("CityE")
                if instance.value_of(city).get("is_capital"))
            cname = rng.choice(("CityE", "CityA"))
            city = _pick(instance, cname, rng,
                         lambda oid: oid not in capitals)
            if city is not None:
                return Delta(deletes={cname: (city,)})
            kind = "insert"
        if kind == "update":
            cname, label, value = rng.choice((
                ("CityE", "name", f"City-{tag}"),
                ("CityA", "name", f"Town-{tag}"),
                ("CountryE", "language", f"lang-{tag}"),
                ("CountryE", "name", f"Land-{tag}")))
            oid = _pick(instance, cname, rng)
            return Delta(updates={cname: {
                oid: instance.value_of(oid).with_field(label, value)}})
        return self.insert(tag)

    def insert(self, tag: str) -> Delta:
        """A new country with its capital and a village."""
        country = Oid.fresh("CountryE")
        return Delta(inserts={
            "CountryE": {country: Record.of(
                name=f"Land-{tag}", language=f"lang-{tag}",
                currency=f"cur-{tag}")},
            "CityE": {
                Oid.fresh("CityE"): Record.of(
                    name=f"Capital-{tag}", is_capital=True,
                    country=country),
                Oid.fresh("CityE"): Record.of(
                    name=f"Village-{tag}", is_capital=False,
                    country=country)}})
