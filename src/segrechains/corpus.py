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

from .chains import REPARAM_MAX_K
from .errors import ParseError
from .manifests import Manifest, load_manifest, read_text

# What a sidecar value may be: (description, test), JSON types as Python
# reads them (a JSON true is a bool, never an int).
_BOOL = ("true or false", lambda v: type(v) is bool)
_INT = ("an integer", lambda v: type(v) is int)
_INT_OR_NULL = ("an integer or null", lambda v: v is None or type(v) is int)
_INTS = ("a list of integers", lambda v: type(v) is list and all(type(x) is int for x in v))
_LADDER = ("a list of [length, count] integer pairs", lambda v: type(v) is list and all(
    type(p) is list and len(p) == 2 and all(type(x) is int for x in p) for p in v))
# Chain lengths are bounded, since checkall builds every chain a sidecar names.
_LENGTH = (f"an integer from 1 to {REPARAM_MAX_K}",
           lambda v: type(v) is int and 1 <= v <= REPARAM_MAX_K)
_LENGTH_KEYS = {str(k) for k in range(1, REPARAM_MAX_K + 1)}
_CHAINS = (f"an object from chain lengths 1 to {REPARAM_MAX_K} to lists of strings",
           lambda v: type(v) is dict and all(
               k.lstrip("0") in _LENGTH_KEYS and type(c) is list
               and all(type(x) is str for x in c) for k, c in v.items()))

# The sidecar keys `checkall` reads, by manifest kind, each with its value type.
SIDECAR_KEYS = {
    "manifold": {
        "minimal": _BOOL, "kappa": _INT, "mu": _INT, "nu": _INT, "multitype": _INTS,
        "e": _INTS, "r": _INTS, "hypersurface_minimal": _BOOL, "e1_generic": _INT,
        "hormander_ladder": _LADDER, "hormander_max_length": _INT_OR_NULL,
        "levi_kmax": _INT_OR_NULL, "levi_type_origin": _INT_OR_NULL,
        "levi_type_generic": _INT_OR_NULL, "holomorphically_nondegenerate": _BOOL,
        "e1_det_nonzero": _BOOL, "orbit_dim": _INT, "gamma_components": _CHAINS,
        "sigma_symmetry_upto": _LENGTH, "reparam_upto": _LENGTH,
    },
    "system": {"orbit_dim": _INT},
}


def _data_dir() -> Path:
    """The bundled data directory.  A package imported from a zip archive has
    none: FileNotFoundError, which the CLI reports as a usage error."""
    root = resources.files("segrechains")
    if not isinstance(root, Path):
        raise FileNotFoundError(
            "the bundled corpus is not a directory (the package was imported from "
            "an archive); run `segrechains checkall <dir>` on a directory of manifests")
    return root / "data"


def corpus(root: Optional[Path] = None) -> List[Tuple[str, Path]]:
    """(name, manifest path) for every manifest under `root` (by default the
    bundled ones), sorted by name."""
    return sorted((p.stem, p) for p in (root or _data_dir()).glob("*.mf"))


def load_with_sidecar(path: Path) -> Tuple[Manifest, Optional[dict]]:
    """The manifest at `path` and its <name>.expected.json, None if absent;
    bad JSON, a non-object, a key checkall does not read or a value of the
    wrong type in the sidecar is a ParseError naming it."""
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
    keys = SIDECAR_KEYS[manifest.kind]
    for key in sorted(expected):
        if key not in keys:
            raise ParseError(f"{sidecar}: unknown key {key!r}")
        description, valid = keys[key]
        if not valid(expected[key]):
            raise ParseError(f"{sidecar}: key {key!r} must be {description}")
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
