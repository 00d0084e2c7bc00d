"""Bundled regression corpus: manifest files plus expected-results sidecars.

Each corpus entry <name> ships as data/<name>.mf with a JSON sidecar
data/<name>.expected.json holding the frozen invariants used by `checkall`.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path
from typing import List, Optional, Tuple

from .manifests import Manifest, load_manifest


def _data_dir() -> Path:
    return Path(resources.files("segrechains") / "data")


def corpus() -> List[Tuple[str, Path]]:
    """(name, manifest path) for every bundled manifest, sorted by name."""
    root = _data_dir()
    return sorted((p.stem, p) for p in root.glob("*.mf"))


def load_entry(name: str) -> Tuple[Manifest, Optional[dict]]:
    """Manifest and expected-results sidecar (None when absent) for one entry."""
    root = _data_dir()
    mf = root / f"{name}.mf"
    if not mf.exists():
        raise FileNotFoundError(f"no bundled manifest named {name!r}")
    manifest = load_manifest(mf)
    sidecar = root / f"{name}.expected.json"
    expected = None
    if sidecar.exists():
        expected = json.loads(sidecar.read_text(encoding="utf-8"))
    return manifest, expected


def corpus_manifolds():
    """All bundled manifold manifests, built and validated."""
    out = []
    for name, path in corpus():
        manifest = load_manifest(path)
        if manifest.kind == "manifold":
            out.append((name, manifest.build_manifold()))
    return out
