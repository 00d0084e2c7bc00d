"""Bundled regression corpus: manifest files plus expected-results sidecars.

Each corpus entry <name> ships as data/<name>.mf with a JSON sidecar
data/<name>.expected.json holding the frozen invariants used by `checkall`.
load_with_sidecar reads both, for the corpus and `checkall <dir>` alike.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import List, Optional, Tuple

from .errors import ParseError
from .manifests import Manifest, load_manifest, read_text

# The sidecar keys `checkall` reads, by manifest kind.
SIDECAR_KEYS = {
    "manifold": frozenset("""minimal kappa mu nu multitype e r hypersurface_minimal
        e1_generic hormander_ladder hormander_max_length levi_kmax levi_type_origin
        levi_type_generic holomorphically_nondegenerate e1_det_nonzero orbit_dim
        gamma_components sigma_symmetry_upto reparam_upto""".split()),
    "system": frozenset(["orbit_dim"]),
}


def _data_dir() -> Path:
    return Path(resources.files("segrechains") / "data")


def corpus(root: Optional[Path] = None) -> List[Tuple[str, Path]]:
    """(name, manifest path) for every manifest under `root` (by default the
    bundled ones), sorted by name."""
    return sorted((p.stem, p) for p in (root or _data_dir()).glob("*.mf"))


def load_with_sidecar(path: Path) -> Tuple[Manifest, Optional[dict]]:
    """The manifest at `path` and its <name>.expected.json, None if absent;
    bad JSON, a non-object or a key checkall does not read in the sidecar
    is a ParseError naming it."""
    manifest = load_manifest(path)
    sidecar = path.with_suffix(".expected.json")
    if not sidecar.exists():
        return manifest, None
    try:
        expected = json.loads(read_text(sidecar))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{sidecar}: invalid JSON: {exc}") from None
    if not isinstance(expected, dict):
        raise ParseError(f"{sidecar}: expected a JSON object")
    unknown = sorted(set(expected) - SIDECAR_KEYS[manifest.kind])
    if unknown:
        raise ParseError(f"{sidecar}: unknown key {unknown[0]!r}")
    return manifest, expected


def load_entry(name: str) -> Tuple[Manifest, Optional[dict]]:
    """Manifest and expected-results sidecar (None when absent) for one entry."""
    mf = _data_dir() / f"{name}.mf"
    if not mf.exists():
        raise FileNotFoundError(f"no bundled manifest named {name!r}")
    return load_with_sidecar(mf)


def corpus_manifolds():
    """All bundled manifold manifests, built and validated."""
    out = []
    for name, path in corpus():
        manifest = load_manifest(path)
        if manifest.kind == "manifold":
            out.append((name, manifest.build_manifold()))
    return out
