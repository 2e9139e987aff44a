"""The served process of the serve workloads.

Started by the harness as ``python child.py --store DIR --seed N``.
Builds the genome Morphase, opens (or, when DIR is empty, creates from
the seeded sources) the store, and serves it through the production
entry points ``Morphase.open_store`` -> ``Morphase.serve`` ->
``make_server`` with their defaults (obs on, fsync off).  Prints
``PORT <n>`` once the socket is bound, then serves until killed.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                "src"))
sys.path.insert(0, HERE)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    from repro.service import make_server
    from repro.store import WarehouseStore

    import workloads

    morphase = workloads.GENOME.build()
    morphase.compile()
    sources = (None if WarehouseStore.exists(args.store)
               else workloads.GENOME.sources(args.seed))
    store = morphase.open_store(args.store, sources)
    server = make_server(morphase.serve(store))
    print(f"PORT {server.server_address[1]}", flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main()
