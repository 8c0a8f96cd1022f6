"""The benchmark's networks, built from their definitions and written as ggff JSON.

pt       the pendant triangle: boundary b hanging off the triangle x, y, z,
         unit conductances, sigma(yz) = -1; P(T) = sqrt(3/7).
annulus  a polar lattice: RINGS interior rings of SITES angular sites between
         a Dirichlet inner ring and a Dirichlet outer ring, unit conductances.
         Radial edges join the same site on neighbouring rings; angular edges
         join neighbouring sites on an interior ring.  The angular edges that
         cross the radial line between site SITES-1 and site 0 carry
         sigma = -1, so a loop has holonomy -1 exactly when it winds around
         the hole an odd number of times.

Each definition also names a vertex pair that straddles the -1 cut, where
G_sigma(x, y) < 0.

    python3 bench/netgen.py --out DIR            write DIR/pt.json, DIR/annulus.json
    python3 bench/netgen.py --setup NAME --out DIR
        time one set-up (import ggff, build NAME, round-trip it through
        save_network/load_network, validate it) and print {"setup_s": ...}
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

RINGS = 24
SITES = 12


@dataclass(frozen=True)
class Spec:
    """A network as plain data: the generator's own edge list."""

    name: str
    vertices: tuple[str, ...]
    boundary: tuple[str, ...]
    edges: tuple[tuple[str, str, str, float, int], ...]  # id, u, v, conductance, sigma
    pair: tuple[str, str]

    @property
    def interior(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.vertices) - set(self.boundary)))


def pendant_triangle() -> Spec:
    edges = (("bx", "b", "x", 1.0, 1), ("xy", "x", "y", 1.0, 1),
             ("yz", "y", "z", 1.0, -1), ("zx", "z", "x", 1.0, 1))
    return Spec("pt", ("b", "x", "y", "z"), ("b",), edges, ("y", "z"))


def polar_annulus(rings: int = RINGS, sites: int = SITES) -> Spec:
    def vid(r: int, s: int) -> str:
        return f"r{r:02d}s{s:02d}"

    vertices = tuple(vid(r, s) for r in range(rings + 2) for s in range(sites))
    boundary = tuple(vid(r, s) for r in (0, rings + 1) for s in range(sites))
    edges = []
    for r in range(rings + 1):
        for s in range(sites):
            edges.append((f"rad{r}-{s}", vid(r, s), vid(r + 1, s), 1.0, 1))
    for r in range(1, rings + 1):
        for s in range(sites):
            cut = -1 if s == sites - 1 else 1
            edges.append((f"ang{r}-{s}", vid(r, s), vid(r, (s + 1) % sites), 1.0, cut))
    mid = (rings + 1) // 2
    return Spec("annulus", vertices, boundary, tuple(edges),
                (vid(mid, sites - 1), vid(mid, 0)))


SPECS = {"pt": pendant_triangle, "annulus": polar_annulus}


def use_checkout_package():
    """Import ggff from this checkout's src/, failing when there is none."""
    if not (SRC / "ggff" / "__init__.py").is_file():
        raise SystemExit(f"error: no ggff package under {SRC}; "
                         "the benchmark runs from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ggff

    if Path(ggff.__file__).resolve().parent != SRC / "ggff":
        raise SystemExit(f"error: imported ggff from {ggff.__file__}, not from {SRC}")
    return ggff


def build(spec: Spec, ggff):
    """The network and gauge field of a definition, as ggff objects."""
    net = ggff.ElectricalNetwork(
        vertices=spec.vertices, boundary=frozenset(spec.boundary),
        edges=tuple(ggff.Edge(i, u, v, c) for i, u, v, c, _ in spec.edges),
        name=spec.name)
    signs = {ggff.edge_key(u, v): s for _, u, v, _, s in spec.edges}
    return net, ggff.GaugeField(net, signs)


def round_trip(spec: Spec, path: Path, ggff):
    """Write a definition with save_network, read it back with load_network,
    validate it, and check that it came back unchanged."""
    net, gauge = build(spec, ggff)
    ggff.save_network(net, path, gauge)
    loaded, loaded_gauge = ggff.load_network(str(path))
    report = ggff.validate(loaded)
    if not report.ok:
        raise ValueError(f"{spec.name}: {report.problems}")
    if (loaded.vertex_set != net.vertex_set or loaded.boundary != net.boundary
            or {k: e.conductance for k, e in loaded.edge_map.items()}
            != {k: e.conductance for k, e in net.edge_map.items()}
            or dict(loaded_gauge.signs) != dict(gauge.signs)):
        raise ValueError(f"{spec.name}: the JSON round trip changed the network")
    return loaded, loaded_gauge


def main(argv=None) -> int:
    start = time.perf_counter()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="directory for the network files")
    p.add_argument("--setup", choices=sorted(SPECS), default=None,
                   help="time one set-up of this network instead of writing all")
    args = p.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ggff = use_checkout_package()
    if args.setup is None:
        for name, make in SPECS.items():
            round_trip(make(), out / f"{name}.json", ggff)
            print(out / f"{name}.json")
        return 0
    path = out / f"setup-{args.setup}-{os.getpid()}.json"
    try:
        round_trip(SPECS[args.setup](), path, ggff)
        elapsed = time.perf_counter() - start
    finally:
        path.unlink(missing_ok=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
