"""Seeded inputs, timed items and answer checks for each benchmark workload.

A workload is a class with three methods, all given `sc`, the namespace of
freshly imported segrechains modules:

- build(sc)          -> inputs.  Input construction (parsing, reality
                        validation, graph_from_real) counts as set-up time.
- items(sc, inputs)  -> [(label, thunk)].  Each thunk is one input's trip to
                        its verdict and is timed on its own.
- check(sc, inputs, answers) -> [(name, ok)].  Runs outside the timed region;
                        every expectation comes from theory or from an oracle
                        independent of the timed code path.

`fingerprint(answers)` reduces the answers to plain data, so that a traced
pass can be required to answer exactly like an untraced one.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import shutil
from fractions import Fraction


def _gaussian(re, im) -> str:
    """Expression text of re + im*i for integer or Fraction parts."""
    sign = "-" if im < 0 else "+"
    return f"({re}{sign}{abs(im)}*i)"


def _nonzero_gaussian(rng):
    while True:
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if a or b:
            return a, b


def codim_theta(rng, d: int):
    """theta_bar for the m = 1 family: w1*zeta1, then for j = 2..d
    c_j*w1^j*zeta1 + conj(c_j)*w1*zeta1^j with c_j a nonzero Gaussian integer."""
    theta = ["w1*zeta1"]
    for j in range(2, d + 1):
        a, b = _nonzero_gaussian(rng)
        theta.append(f"{_gaussian(a, b)}*w1^{j}*zeta1 + {_gaussian(a, -b)}*w1*zeta1^{j}")
    return theta


def _run_cli(sc, argv):
    """(exit code, stdout) of one in-process CLI call; stderr is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = sc.cli.main(argv)
    return code, out.getvalue()


class CodimScaling:
    """segre_invariants on the m = 1 family for d = 2..6."""

    DS = range(2, 7)

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.thetas = {d: codim_theta(rng, d) for d in self.DS}

    def build(self, sc):
        return {d: sc.pkg.new_manifold(1, d, self.thetas[d]) for d in self.DS}

    def items(self, sc, inputs):
        return [
            (f"d={d}", lambda M=M: sc.pkg.segre_invariants(M))
            for d, M in inputs.items()
        ]

    def check(self, sc, inputs, answers):
        out = []
        for (d, M), inv in zip(inputs.items(), answers):
            out.append((f"d={d}.multitype", inv.multitype == (1,) * (d + 2)))
            out.append((f"d={d}.minimal", inv.minimal))
            ladder = sc.pkg.hormander_numbers(M).ladder
            out.append((f"d={d}.ladder",
                        ladder == tuple((j, 1, j + 1) for j in range(2, d + 2))))
        return out

    @staticmethod
    def fingerprint(answers):
        return [_invariants_data(inv) for inv in answers]


class CodimD8(CodimScaling):
    """The d = 8 member of the family, for ROADMAP's "d = 8 under 1 s" target.
    Not a gated workload: its one item takes several times as long as a pass
    of the others, so too few passes would fit in a run."""

    DS = (8,)


class CorpusCheckall:
    """The bundled corpus through `segrechains checkall`, one entry per call."""

    def __init__(self, seed, workdir):
        self.seed = seed
        # each entry gets a directory of its own, so one call checks one entry
        self.dirs = []
        for name, path in importlib.import_module("segrechains.corpus").corpus():
            target = workdir / "corpus" / name
            target.mkdir(parents=True)
            shutil.copy(path, target / path.name)
            shutil.copy(path.with_suffix(".expected.json"),
                        target / f"{name}.expected.json")
            self.dirs.append(target)

    def build(self, sc):
        return self.dirs

    def items(self, sc, inputs):
        argv = ["--format", "machine", "--seed", str(self.seed)]
        return [
            (d.name, lambda d=d: _run_cli(sc, ["checkall", str(d)] + argv))
            for d in inputs
        ]

    def check(self, sc, inputs, answers):
        out = []
        for d, (code, stdout) in zip(inputs, answers):
            # exit code 0 means a machine report was printed with no failure
            ok = code == 0 and len(json.loads(stdout)["results"]["items"]) > 0
            out.append((f"{d.name}.checkall", ok))
        return out

    @staticmethod
    def fingerprint(answers):
        return answers


def _hermitian_h(rng, m, shape):
    """A real graph function h(w, wb, x1): Hermitian pairs c*w^alpha*wb^beta*x1^k
    + conj(c)*w^beta*wb^alpha*x1^k.  `shape` lists (|alpha|, |beta|, k) per
    pair; a degree is split over w1..wm round-robin.  The seed picks the
    coefficients and a relabelling of the w variables, which leaves the cost
    of the input unchanged."""
    perm = list(range(m))
    rng.shuffle(perm)
    terms = []
    for deg_a, deg_b, k in shape:
        alpha, beta = [0] * m, [0] * m
        for u in range(deg_a):
            alpha[perm[u % m]] += 1
        for u in range(deg_b):
            beta[perm[(u + 1) % m]] += 1
        a, b = _nonzero_gaussian(rng)
        den = rng.randint(1, 3)
        c = (Fraction(a, den), Fraction(b, den))
        for coeff, left, right in ((c, alpha, beta), ((c[0], -c[1]), beta, alpha)):
            factors = [f"w{i + 1}^{e}" for i, e in enumerate(left) if e]
            factors += [f"wb{i + 1}^{e}" for i, e in enumerate(right) if e]
            if k:
                factors.append(f"x1^{k}")
            terms.append(f"{_gaussian(*coeff)}*" + "*".join(factors))
    return " + ".join(terms)


# Term shapes (|alpha|, |beta|, k) of the jet inputs: three Hermitian pairs,
# the first always transversal.  The last shape is transversal in every pair,
# which forces theta(zeta, w, 0) = 0, a nonminimal input.  Every seed uses
# each (m, shape) combination equally often, so every seed costs about the same.
_JET_SHAPES = (
    ((1, 1, 1), (1, 2, 0), (2, 1, 0)),
    ((1, 1, 1), (2, 2, 0), (1, 1, 0)),
    ((1, 2, 1), (1, 1, 0), (2, 2, 1)),
    ((1, 1, 1), (1, 2, 1), (2, 1, 1)),
)


class JetHypersurfaces:
    """segre_invariants(certify=True) on 40 truncated random hypersurfaces."""

    COUNT = 40
    ORDER = 8

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        kinds = [(m, shape) for m in (1, 2) for shape in _JET_SHAPES]
        kinds *= self.COUNT // len(kinds)
        rng.shuffle(kinds)
        self.specs = [(m, _hermitian_h(rng, m, shape)) for m, shape in kinds]

    def build(self, sc):
        return [sc.pkg.graph_from_real(m, 1, [h], self.ORDER) for m, h in self.specs]

    def items(self, sc, inputs):
        return [
            (f"#{i}", lambda M=M: sc.pkg.segre_invariants(M, certify=True))
            for i, M in enumerate(inputs)
        ]

    def check(self, sc, inputs, answers):
        out = []
        for i, (M, inv) in enumerate(zip(inputs, answers)):
            out.append((f"#{i}.minimal",
                        inv.minimal == sc.pkg.hypersurface_minimality(M)))
            out.append((f"#{i}.r1_r2", inv.profile.r[:2] == (M.m, 2 * M.m)))
        return out

    @staticmethod
    def fingerprint(answers):
        return [_invariants_data(inv) for inv in answers]


# (min, max) exponent pairs of the m = 2 Levi inputs; the seed orients each
# pair and picks the positive coefficients.
_LEVI_SHAPES = ((2, 2), (2, 3), (3, 3), (2, 4))


class OrbitsLevi:
    """Greedy orbits against the bracket-span oracle, then Levi type,
    holomorphic nondegeneracy and bracket ladders of m = 2 hypersurfaces."""

    ORBIT_DS = range(2, 6)
    LEVI_KMAX = 12
    PROBE_ORDER = 3

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.thetas = {d: codim_theta(rng, d) for d in self.ORBIT_DS}
        self.levi = []
        for p, q in _LEVI_SHAPES:
            a, b = (p, q) if rng.random() < 0.5 else (q, p)
            c1 = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            c2 = Fraction(rng.randint(1, 9), rng.randint(1, 4))
            self.levi.append(
                (a, b, f"{c1}*w1^{a}*zeta1^{a} + {c2}*w2^{b}*zeta2^{b}")
            )
        self.workdir = workdir

    def build(self, sc):
        orbit = [(d, sc.pkg.new_manifold(1, d, self.thetas[d])) for d in self.ORBIT_DS]
        levi = [(a, b, sc.pkg.new_manifold(2, 1, [t])) for a, b, t in self.levi]
        return orbit, levi

    def items(self, sc, inputs):
        orbit, levi = inputs
        pkg = sc.pkg

        def orbit_item(M):
            system = pkg.cr_pair_system(M)
            return (pkg.greedy_multitype(system, witness=True),
                    pkg.lie_span_dimension(system))

        def levi_item(M, a, b):
            return (pkg.levi_type(M, kmax=self.LEVI_KMAX),
                    pkg.holomorphic_nondegeneracy(M),
                    pkg.hormander_numbers(M, max_length=2 * max(a, b)))

        return (
            [(f"orbit d={d}", lambda M=M: orbit_item(M)) for d, M in orbit]
            + [(f"levi a={a} b={b}", lambda M=M, a=a, b=b: levi_item(M, a, b))
               for a, b, M in levi]
        )

    def check(self, sc, inputs, answers):
        orbit, levi = inputs
        out = []
        for (d, _), (greedy, span) in zip(orbit, answers):
            out.append((f"orbit d={d}.dims", greedy.orbit_dim == span == d + 2))
            w = greedy.witness
            out.append((f"orbit d={d}.witness",
                        w is not None and w["returns_to_origin"]
                        and w["rank_at_t_star"] == d + 2))
        for (a, b, _), (ell, hn, hd) in zip(levi, answers[len(orbit):]):
            tag = f"levi a={a} b={b}"
            out.append((f"{tag}.origin", ell is None))
            out.append((f"{tag}.generic", hn["levi_type_generic"] == 1))
            out.append((f"{tag}.ladder", hd.ladder == ((2 * min(a, b), 1, 5),)))
        return out

    def known_defects(self, sc):
        """`segrechains orbit M.mf --order N` on one input.  The truncated
        flows currently end in TruncationUnsound (exit 1); the check expects
        the orbit report (exit 0), so it fails until that path is fixed."""
        a, b, theta = self.levi[0]
        path = self.workdir / "probe.mf"
        path.write_text(
            f"kind=manifold\nm=2\nd=1\norder=EXACT\ntheta_bar_1 = {theta}\n",
            encoding="utf-8",
        )
        code, _ = _run_cli(
            sc, ["orbit", str(path), "--order", str(self.PROBE_ORDER),
                 "--format", "machine"])
        return [("orbit --order truncated flows", code == 0)]

    @staticmethod
    def fingerprint(answers):
        out = []
        for x, y, *rest in answers:
            if rest:
                out.append((x, y, rest[0].ladder, rest[0].level_dims))
            else:
                out.append((x.multitype, x.word, x.ranks, repr(x.witness), y))
        return out


def _invariants_data(inv):
    p = inv.profile
    return (inv.multitype, inv.minimal, p.r, p.e, p.certified, p.stopped_at,
            repr(p.witnesses))


WORKLOADS = {
    "codim_scaling": CodimScaling,
    "corpus_checkall": CorpusCheckall,
    "jet_hypersurfaces": JetHypersurfaces,
    "orbits_levi": OrbitsLevi,
    "codim_d8": CodimD8,
}
