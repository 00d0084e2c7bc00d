"""Line-oriented key=value manifests for manifolds and vector-field systems.

Manifold manifests:

    kind=manifold          # optional, inferred from the keys
    m=1
    d=1
    order=EXACT            # or a positive integer truncation degree
    theta_bar_1 = w1^2*zeta1^2

System manifests:

    kind=system
    n=3
    m=1
    a=2
    field_1_1_x1 = 1       # field alpha, component i, coefficient of d/dx1
    field_2_1_x2 = 1
    field_2_1_x3 = x1

Each field's component is one series.TangentVectorField over x1..xn (zero
where no entry is given): the m-tuples of an orbit.VFSystem.

Blank lines and `#` comments are ignored.  A key given twice (theta_bar_01
and theta_bar_1 are one key) is refused.  Parsing collects diagnostics with
line numbers (an unknown key, or a key of the other kind, is ignored), and
an error in an entry's expression names the entry's line; serialization is
canonical, so parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .errors import ParseError
from .exprs import format_series, parse_series
from .manifold import ORDER_MESSAGE, CRManifold, ambient_space, new_manifold
from .orbit import VFSystem, coordinate_space
from .series import Series, TangentVectorField

_THETA_KEY = re.compile(r"^theta_bar_(\d+)$")
_FIELD_KEY = re.compile(r"^field_(\d+)_(\d+)_([A-Za-z_][A-Za-z0-9_]*)$")


def parse_order(text: str) -> Optional[int]:
    """None for "EXACT", else a truncation degree >= 1 (ValueError otherwise)."""
    if text == "EXACT":
        return None
    try:
        order = int(text)
    except ValueError:
        order = 0
    if order < 1:
        raise ValueError(ORDER_MESSAGE)
    return order


@dataclass
class Manifest:
    kind: str  # "manifold" | "system"
    params: dict
    entries: dict  # theta_bar index -> text, or (alpha, i, var) -> text
    source: Optional[str] = None
    diagnostics: list = field(default_factory=list)
    lines: dict = field(default_factory=dict, compare=False)  # key -> line (entries by entry key)

    def location(self, key) -> str:
        """`<source>:<line>` of entry `key` (`<source>` when the line is unknown)."""
        where = self.source or "<manifest>"
        return f"{where}:{self.lines[key]}" if key in self.lines else where

    def parse_entry(self, key, space, order) -> Series:
        """The expression of entry `key` over `space`; a ParseError in it
        is located at the entry's line."""
        try:
            return parse_series(self.entries[key], space, order)
        except ParseError as exc:
            raise ParseError(f"{self.location(key)}: {exc}") from None

    # -- building -----------------------------------------------------------

    def order_value(self):
        return parse_order(self.params.get("order", "EXACT"))

    def build(self):
        if self.kind == "manifold":
            return self.build_manifold()
        return self.build_system()

    def build_manifold(self) -> CRManifold:
        m, d = int(self.params["m"]), int(self.params["d"])
        space, order = ambient_space(m, d), self.order_value()
        for j in self.entries:
            if not 1 <= j <= d:
                raise ParseError(f"{self.location(j)}: theta_bar_{j} out of range")
        theta = []
        for j in range(1, d + 1):
            if j not in self.entries:
                raise ParseError(f"{self.location(j)}: missing theta_bar_{j}")
            theta.append(self.parse_entry(j, space, order))
        return new_manifold(m, d, theta, order)

    def build_system(self) -> VFSystem:
        n, m, a = (int(self.params[k]) for k in ("n", "m", "a"))
        space = coordinate_space(n)
        order = self.order_value()
        zero = Series.zero(space, order)
        coeffs = [[[zero] * n for _ in range(m)] for _ in range(a)]
        for key in self.entries:
            alpha, i, var = key
            if not (1 <= alpha <= a and 1 <= i <= m):
                raise ParseError(f"{self.location(key)}: field_{alpha}_{i}_{var} out of range")
            if var not in space:
                raise ParseError(f"{self.location(key)}: unknown variable {var!r}")
            coeffs[alpha - 1][i - 1][space.index_of(var)] = self.parse_entry(key, space, order)
        fields = [[TangentVectorField(space, tuple(c)) for c in fld] for fld in coeffs]
        return VFSystem(fields, order=order)

    # -- serialization --------------------------------------------------------

    def serialize(self) -> str:
        lines = [f"kind={self.kind}"]
        if self.kind == "manifold":
            lines.append(f"m={int(self.params['m'])}")
            lines.append(f"d={int(self.params['d'])}")
            lines.append(f"order={self.params.get('order', 'EXACT')}")
            for j in sorted(self.entries):
                lines.append(f"theta_bar_{j} = {self.entries[j]}")
        else:
            lines.append(f"n={int(self.params['n'])}")
            lines.append(f"m={int(self.params['m'])}")
            lines.append(f"a={int(self.params['a'])}")
            lines.append(f"order={self.params.get('order', 'EXACT')}")
            for alpha, i, var in sorted(self.entries):
                lines.append(f"field_{alpha}_{i}_{var} = {self.entries[(alpha, i, var)]}")
        return "\n".join(lines) + "\n"

    def canonical(self) -> "Manifest":
        """Re-express every entry in canonical serialized form."""
        if self.kind == "manifold":
            space = ambient_space(int(self.params["m"]), int(self.params["d"]))
        else:
            space = coordinate_space(int(self.params["n"]))
        entries = {
            k: format_series(self.parse_entry(k, space, self.order_value()))
            for k in self.entries
        }
        return Manifest(self.kind, dict(self.params), entries, self.source, [],
                        dict(self.lines))


def parse_manifest(text: str, source: Optional[str] = None) -> Manifest:
    params = {}
    theta_entries = {}
    field_entries = {}
    lines = {}  # each key given, theta and field indices read as ints -> its line
    ignored = []  # (line, key) of each unknown key
    foreign = {"manifold": [], "system": []}  # kind -> (line, key) of the keys it never reads
    kind = None
    where = source or "<manifest>"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{where}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        tm = _THETA_KEY.match(key)
        fm = _FIELD_KEY.match(key)
        ident = (int(tm.group(1)) if tm else
                (int(fm.group(1)), int(fm.group(2)), fm.group(3)) if fm else key)
        if ident in lines:
            raise ParseError(f"{where}:{lineno}: duplicate key {key!r} "
                             f"(first given at line {lines[ident]})")
        lines[ident] = lineno
        if tm:
            theta_entries[ident] = value
            foreign["system"].append((lineno, key))
        elif fm:
            field_entries[ident] = value
            foreign["manifold"].append((lineno, key))
        elif key == "kind":
            kind = value
        elif key in ("m", "d", "n", "a"):
            try:
                params[key] = int(value)
                if params[key] < 1:
                    raise ValueError
            except ValueError:
                raise ParseError(
                    f"{where}:{lineno}: {key} must be a positive integer"
                ) from None
        elif key == "order":
            try:
                parse_order(value)
            except ValueError as exc:
                raise ParseError(f"{where}:{lineno}: {exc}") from None
            params["order"] = value
        else:
            ignored.append((lineno, key))
    if kind is None:
        if theta_entries and not field_entries:
            kind = "manifold"
        elif field_entries and not theta_entries:
            kind = "system"
        else:
            raise ParseError(f"{where}: cannot infer manifest kind")
    if kind == "manifold":
        for k in ("m", "d"):
            if k not in params:
                raise ParseError(f"{where}: missing {k}=")
        entries = theta_entries
    elif kind == "system":
        for k in ("n", "m", "a"):
            if k not in params:
                raise ParseError(f"{where}: missing {k}=")
        entries = field_entries
    else:
        raise ParseError(f"{where}: unknown kind {kind!r}")
    diagnostics = [f"{where}:{lineno}: ignored key {key!r}"
                   for lineno, key in sorted(ignored + foreign[kind])]
    return Manifest(kind, params, entries, source, diagnostics, lines)


def read_text(path) -> str:
    """The UTF-8 text at `path`; FileNotFoundError if it is missing, a
    ParseError naming it if unreadable (a directory, not UTF-8)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        where = f"byte {exc.object[exc.start]:#04x} at offset {exc.start}"
        raise ParseError(f"{path}: not UTF-8 text ({where})") from None


def load_manifest(path) -> Manifest:
    return parse_manifest(read_text(path), source=str(path))
