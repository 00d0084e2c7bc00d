"""Command-line interface: manifest-driven computations and the regression gate.

Commands: validate, chains, ranks, minimality, multitype, witness, hormander,
levi, e1det, orbit, corpus, checkall.  Exit codes: 0 success, 1 verdict
failure (e.g. an invalid manifold or a failed regression item), 2 usage error.
Machine reports are JSON with sorted keys, so identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .chains import check_reparam, default_kmax, gamma, sigma_image
from .corpus import corpus, load_with_sidecar
from .errors import ParseError, SegreError, RealityViolation, TruncationUnsound
from .exprs import format_series, parse_series
from .invariants import (
    hypersurface_minimality,
    rank_profile,
    segre_invariants,
    witness_point,
)
from .lie import (
    e1_determinant,
    holomorphic_nondegeneracy,
    hormander_numbers,
    levi_type,
)
from .manifests import load_manifest, parse_order
from .manifold import Basepoint
from .orbit import cr_pair_system, greedy_multitype, lie_span_dimension
from .ranks import DEFAULT_TRIALS
from .scalars import format_scalar
from .series import VarSpace


def _parse_scalar(text: str):
    return parse_series(text, VarSpace([]), None).constant_term()


def _basepoint(M, spec_text: str) -> Basepoint:
    if spec_text == "origin":
        return Basepoint.origin()
    if spec_text == "generic":
        return Basepoint.symbolic()
    try:
        values = [_parse_scalar(part) for part in spec_text.split(",")]
    except ParseError as exc:
        raise ParseError(f"--base: {exc}") from None
    if len(values) != 2 * M.n:
        raise ParseError(f"--base needs {2 * M.n} comma-separated scalars (w, z, zeta, xi)")
    m, d = M.m, M.d
    return Basepoint.numeric(M, values[:m], values[m : m + d], values[m + d : 2 * m + d],
                             values[2 * m + d :])


def _fmt_scalars(values):
    return [format_scalar(v) for v in values]


def _profile_payload(profile):
    return {"r": list(profile.r), "e": list(profile.e), "certified": profile.certified,
            "stopped_at": profile.stopped_at, "kmax": profile.kmax}


def _invariants_payload(inv):
    orbit_dims = {"complexified": inv.orbit_dim_complexified,
                  "intrinsic": inv.orbit_dim_intrinsic, "real": inv.orbit_dim_real}
    return {"kappa": inv.kappa, "mu": inv.mu, "nu": inv.nu, "multitype": list(inv.multitype),
            "minimal": inv.minimal, "orbit_dims": orbit_dims,
            "profile": _profile_payload(inv.profile)}


def _hormander_payload(hd):
    return {"ladder": [[mu, l, dim] for mu, l, dim in hd.ladder], "h": hd.h,
            "minimal": hd.minimal, "level_dims": list(hd.level_dims)}


def _emit(report, args, human_lines):
    if args.format == "machine":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in human_lines:
            print(line)


def _provenance(args, order):
    return {
        "seed": args.seed,
        "trials": args.trials,
        "order": "EXACT" if order is None else order,
        "kmax": getattr(args, "kmax", None),
        "version": __version__,
    }


def _order_option(text):
    """The --order value: None when absent, "EXACT", or a degree >= 1."""
    if text is None or text == "EXACT":
        return text
    try:
        return parse_order(text)
    except ValueError as exc:
        raise ParseError(f"--order: {exc}") from None


def _load_manifold(args):
    """The manifest's manifold, a jet's at most at its own order (TruncationUnsound)."""
    manifest = load_manifest(args.manifest)
    if manifest.kind != "manifold":
        raise ParseError(f"{args.manifest}: expected a manifold manifest")
    own = manifest.order_value()
    if args.order is not None:
        if own is not None and (args.order == "EXACT" or args.order > own):
            raise TruncationUnsound(f"a manifest truncated at order {own} cannot be read at "
                                    f"order {args.order}; give an order of at most {own}")
        manifest.params["order"] = str(args.order)
    return manifest.build_manifold()


def _report(args, inputs, results, order):
    """The machine report of one subcommand run on one manifest."""
    return {
        "command": args.command,
        "manifest": str(args.manifest),
        "inputs": inputs,
        "results": results,
        "provenance": _provenance(args, order),
    }


def _manifold_command(run, base=True):
    """A subcommand on one manifold manifest: load the manifold and (with
    `base`) the --base point, then emit what run(args, M, bp) returns:
    (results, human lines[, exit code])."""

    def command(args):
        M = _load_manifold(args)
        inputs = {"m": M.m, "d": M.d}
        bp = None
        if base:
            bp = _basepoint(M, args.base)
            inputs["base"] = args.base
        results, lines, *code = run(args, M, bp)
        _emit(_report(args, inputs, results, M.order), args, lines)
        return code[0] if code else 0

    return command


def cmd_validate(args):
    try:
        M = _load_manifold(args)
    except RealityViolation as exc:
        report = {
            "command": "validate",
            "manifest": str(args.manifest),
            "results": {"valid": False, "reason": str(exc)},
        }
        _emit(report, args, [f"INVALID: {exc}"])
        return 1
    report = _report(args, {"m": M.m, "d": M.d}, {"valid": True}, M.order)
    _emit(report, args, [f"valid manifold: m={M.m}, d={M.d}, "
                         f"order={'EXACT' if M.order is None else M.order}"])
    return 0


@_manifold_command
def cmd_chains(args, M, bp):
    kmax = min(default_kmax(M), 5) if args.kmax is None else args.kmax
    items = []
    lines = []
    for k in range(1, kmax + 1):
        chain = gamma(M, k, bp, args.parity)
        comps = {
            name: format_series(s)
            for name, s in zip(M.space.names, chain.map.components)
        }
        items.append({"k": k, "parity": args.parity, "components": comps})
        lines.append(f"Gamma_{k} ({args.parity}-first):")
        for name, text in comps.items():
            lines.append(f"  {name} = {text}")
    return {"chains": items}, lines


@_manifold_command
def cmd_ranks(args, M, bp):
    profile = rank_profile(M, bp, args.kmax, args.trials, args.seed, certify=args.certify)
    lines = [
        "k    : " + "  ".join(f"{k + 1:3d}" for k in range(len(profile.r))),
        "rank : " + "  ".join(f"{r:3d}" for r in profile.r),
        f"increments e = {list(profile.e)}",
        f"certified = {profile.certified}",
    ]
    return _profile_payload(profile), lines


@_manifold_command
def cmd_minimality(args, M, bp):
    inv = segre_invariants(M, bp, args.kmax, args.trials, args.seed)
    results = {"minimal": inv.minimal, "mu": inv.mu, "kappa": inv.kappa}
    lines = [f"minimal = {inv.minimal}   (mu = {inv.mu}, kappa = {inv.kappa})"]
    if M.d == 1:
        hm = hypersurface_minimality(M)
        results["hypersurface_test"] = hm
        results["tests_agree"] = hm == inv.minimal
        lines.append(f"hypersurface criterion agrees: {results['tests_agree']}")
    return results, lines, 0 if results.get("tests_agree", True) else 1


@_manifold_command
def cmd_multitype(args, M, bp):
    inv = segre_invariants(M, bp, args.kmax, args.trials, args.seed)
    lines = [
        f"multitype = {inv.multitype}",
        f"kappa = {inv.kappa}, mu = {inv.mu}, nu = {inv.nu}",
        f"minimal = {inv.minimal}",
        f"orbit dims: complexified = {inv.orbit_dim_complexified}, "
        f"intrinsic = {inv.orbit_dim_intrinsic}",
    ]
    return _invariants_payload(inv), lines


@_manifold_command
def cmd_witness(args, M, bp):
    if bp.kind == "symbolic":
        raise ParseError("witness search needs a numeric basepoint")
    if M.order is not None:
        raise ParseError("witness search needs an EXACT manifold: a truncated "
                         "chain cannot be evaluated at nonzero times")
    inv = segre_invariants(M, bp, args.kmax, args.trials, args.seed)
    record = witness_point(M, inv, bp, seed=args.seed)
    payload = {
        "w_star": [_fmt_scalars(blk) for blk in record.w_star],
        "omega_star": [_fmt_scalars(blk) for blk in record.omega_star],
        "chain_length": record.chain_length,
        "rank_at_witness": record.rank_at_witness,
        "returns_to_basepoint": record.returns_to_basepoint,
    }
    lines = [
        f"chain length {record.chain_length} returns to basepoint: "
        f"{record.returns_to_basepoint}",
        f"rank at witness = {record.rank_at_witness} "
        f"(expected {inv.orbit_dim_complexified})",
        f"w* = {payload['w_star']}",
        f"omega* = {payload['omega_star']}",
    ]
    return payload, lines


@_manifold_command
def cmd_hormander(args, M, bp):
    hd = hormander_numbers(M, bp, args.max_length, args.trials, args.seed)
    lines = ["ladder (length, multiplicity, dim):"]
    for mu, l, dim in hd.ladder:
        lines.append(f"  ({mu}, {l}, {dim})")
    lines.append(f"minimal = {hd.minimal}")
    return _hormander_payload(hd), lines


@_manifold_command
def cmd_levi(args, M, bp):
    ell = levi_type(M, bp, args.kmax, args.trials, args.seed)
    hn = holomorphic_nondegeneracy(M, args.kmax, args.trials, args.seed)
    results = {
        "levi_type": ell,
        "levi_type_generic": hn["levi_type_generic"],
        "holomorphically_nondegenerate": hn["nondegenerate"],
        "kmax": hn["kmax"],
    }
    lines = [
        f"Levi type at base = {ell if ell is not None else 'not finite (up to kmax)'}",
        f"generic Levi type = {hn['levi_type_generic']}",
        f"holomorphically nondegenerate = {hn['nondegenerate']}",
    ]
    return results, lines


def _e1det(args, M, bp):
    det, nonzero = e1_determinant(M)
    results = {"determinant": format_series(det), "nonzero": nonzero}
    return results, [f"det = {format_series(det)}", f"nonzero = {nonzero}"]


cmd_e1det = _manifold_command(_e1det, base=False)


def cmd_orbit(args):
    manifest = load_manifest(args.manifest)
    if manifest.kind == "manifold":
        M = manifest.build_manifold()
        system = cr_pair_system(M)
    else:
        system = manifest.build_system()
    if args.kmax is not None and args.kmax < system.a:
        raise ParseError(f"--kmax must be >= {system.a}, the number of fields")
    # with no --order the flows keep the manifest's own truncation
    order = {None: system.order, "EXACT": None}.get(args.order, args.order)
    result = greedy_multitype(system, kmax=args.kmax, order=order, trials=args.trials,
                              seed=args.seed, witness=False)
    oracle = lie_span_dimension(system)
    payload = {"multitype": list(result.multitype), "orbit_dim": result.orbit_dim,
               "word": [w + 1 for w in result.word], "ranks": list(result.ranks),
               "lie_span_dim": oracle, "certified": result.orbit_dim == oracle,
               "flows_exact": result.flows_exact}
    if system.a == 2:
        other = greedy_multitype(system, kmax=args.kmax, order=order, trials=args.trials,
                                 seed=args.seed, start_order=[1, 0], witness=False)
        payload["multitype_conjugate_start"] = list(other.multitype)
    report = _report(args, {"n": system.n, "m": system.m, "a": system.a}, payload, order)
    lines = [
        f"multitype = {payload['multitype']}",
        f"orbit_dim = {payload['orbit_dim']} "
        f"(bracket-span oracle: {oracle}, agree: {payload['certified']})",
        f"greedy word = {payload['word']}",
    ]
    _emit(report, args, lines)
    return 0 if payload["certified"] else 1


def cmd_corpus(args):
    entries = corpus()
    report = {
        "command": "corpus",
        "results": {"manifests": [{"name": n, "path": str(p)} for n, p in entries]},
    }
    _emit(report, args, [f"{n}  {p}" for n, p in entries])
    return 0


# -- checkall ---------------------------------------------------------------


def _check_manifold_expectations(name, manifest, expected, args, emit):
    def check(key, actual, detail=None, want=None):
        """Emit one item: `actual` against `want` (default expected[key])."""
        ok = (expected[key] if want is None else want) == actual
        emit(name, key, ok, f"got {actual}" if detail is None else detail)

    try:
        M = manifest.build_manifold()
        emit(name, "validate", True, "")
    except RealityViolation as exc:
        emit(name, "validate", False, str(exc))
        return
    seed, trials = args.seed, args.trials
    inv = None
    if any(k in expected for k in ("minimal", "kappa", "mu", "nu", "multitype", "e", "r")):
        inv = segre_invariants(M, Basepoint.origin(), None, trials, seed)
        for key, actual in (
            ("minimal", inv.minimal), ("kappa", inv.kappa), ("mu", inv.mu), ("nu", inv.nu),
            ("multitype", list(inv.multitype)), ("e", list(inv.profile.e[: inv.kappa])),
            ("r", list(inv.profile.r)),
        ):
            if key in expected:
                check(key, actual, f"expected {expected[key]}, got {actual}")
    if "hypersurface_minimal" in expected:
        check("hypersurface_minimal", hypersurface_minimality(M))
    if "e1_generic" in expected:
        ginv = segre_invariants(M, Basepoint.symbolic(), None, trials, seed)
        check("e1_generic", ginv.profile.e[0] if ginv.profile.e else 0)
    if "hormander_ladder" in expected:
        hd = hormander_numbers(
            M, Basepoint.origin(), expected.get("hormander_max_length"), trials, seed
        )
        check("hormander_ladder", [[mu, l] for mu, l, _ in hd.ladder])
        if inv is not None:
            agree = hd.minimal == inv.minimal and sum(hd.multiplicities()) == sum(
                inv.multitype[2:]
            )
            check("bracket_chain_crosscheck", agree, "", want=True)
    levi_kmax = expected.get("levi_kmax")
    if "levi_type_origin" in expected:
        check("levi_type_origin", levi_type(M, Basepoint.origin(), levi_kmax, trials, seed))
    if "levi_type_generic" in expected or "holomorphically_nondegenerate" in expected:
        hn = holomorphic_nondegeneracy(M, levi_kmax, trials, seed)
        if "levi_type_generic" in expected:
            check("levi_type_generic", hn["levi_type_generic"])
        if "holomorphically_nondegenerate" in expected:
            check("holomorphically_nondegenerate", hn["nondegenerate"])
    if "e1_det_nonzero" in expected:
        check("e1_det_nonzero", e1_determinant(M)[1])
    if "orbit_dim" in expected:
        system = cr_pair_system(M)
        result = greedy_multitype(system, order=system.order, trials=trials, seed=seed,
                                  witness=False)
        check("orbit_dim", result.orbit_dim)
    if "gamma_components" in expected:
        for k_text, comps in expected["gamma_components"].items():
            chain = gamma(M, int(k_text), Basepoint.origin(), "L")
            check(f"gamma_{k_text}", [format_series(s) for s in chain.map.components],
                  want=comps)
    if "sigma_symmetry_upto" in expected:
        ok = True
        for k in range(1, expected["sigma_symmetry_upto"] + 1):
            image = sigma_image(gamma(M, k, Basepoint.origin(), "L", verify=False))
            direct = gamma(M, k, Basepoint.origin(), "Lbar", verify=False)
            ok = ok and image.map.components == direct.map.components
        check("sigma_symmetry", ok, "", want=True)
    if "reparam_upto" in expected:
        ok = all(check_reparam(M, k) for k in range(1, expected["reparam_upto"] + 1))
        check("reparametrization", ok, "", want=True)


def cmd_checkall(args):
    root = Path(args.manifest) if args.manifest else None
    entries = corpus(root)
    if not entries:
        raise ParseError(f"no .mf manifests under {root}")
    lines = []
    items = []
    total_failures = 0

    def emit(name, key, ok, detail):
        nonlocal total_failures
        total_failures += not ok
        status = "PASS" if ok else "FAIL"
        suffix = "" if ok or not detail else f"  ({detail})"
        lines.append(f"{status}  {name}.{key}{suffix}")
        items.append({"name": name, "check": key, "ok": bool(ok)})

    for name, path in entries:
        manifest, expected = load_with_sidecar(path)
        expected = expected or {}
        if manifest.kind == "manifold":
            _check_manifold_expectations(name, manifest, expected, args, emit)
        else:
            system = manifest.build_system()
            dim = greedy_multitype(
                system, order=system.order, trials=args.trials, seed=args.seed, witness=False
            ).orbit_dim
            if "orbit_dim" in expected:
                emit(name, "orbit_dim", expected["orbit_dim"] == dim, f"got {dim}")
            oracle = lie_span_dimension(system)
            emit(name, "orbit_oracle_agreement", oracle == dim, f"{dim} vs {oracle}")
    report = {
        "command": "checkall",
        "results": {"items": items, "failures": total_failures},
        "provenance": {"seed": args.seed, "trials": args.trials,
                       "version": __version__},
    }
    _emit(report, args, lines + [f"failures: {total_failures}"])
    return 1 if total_failures else 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors reach main as a ParseError, so
    they print as one error line like every other usage error."""

    def error(self, message):
        raise ParseError(message)


class _Refused(argparse.Action):
    """A flag of _FLAGS that a subcommand does not read: it takes its value
    (if the flag has one), so the error names both and argparse never reads
    the value as a positional argument."""

    def __call__(self, parser, namespace, values, option_string=None):
        raise ParseError(" ".join(["unrecognized arguments:", option_string, *values]))


# The flags a subcommand may declare, by destination name.
_FLAGS = {
    "order": ("--order", {"default": None,
                          "help": "EXACT or a truncation degree (overrides manifest)"}),
    "seed": ("--seed", {"type": int, "default": 0}),
    "trials": ("--trials", {"type": int, "default": DEFAULT_TRIALS}),
    "kmax": ("--kmax", {"type": int, "default": None}),
    "base": ("--base", {"default": "origin",
                        "help": "origin | generic | comma-separated w,z,zeta,xi scalars "
                                "(a point other than the origin needs EXACT)"}),
    "parity": ("--parity", {"choices": ("L", "Lbar"), "default": "L"}),
    "certify": ("--certify", {
        "action": "store_true",
        "help": "flag ranks up to 6 whose witnessed minor is a nonzero series.  "
                "EXACT chains are ranked from forward-mode Jacobians and certified "
                "by the exact minor at the sample point (evaluation is a ring "
                "homomorphism); the minor is expanded symbolically only in jet mode"}),
    "max_length": ("--max-length", {"type": int, "default": None}),
}
_SAMPLING = ("order", "seed", "trials", "kmax", "base")

# name, handler, manifest argument ("required", "optional" or None), the
# flags it reads, and the least --kmax it accepts (rank profiles need chains
# of length 3; orbit checks its own bound).
_COMMANDS = (
    ("validate", cmd_validate, "required", ("order",), 1),
    ("chains", cmd_chains, "required", ("order", "kmax", "base", "parity"), 1),
    ("ranks", cmd_ranks, "required", _SAMPLING + ("certify",), 3),
    ("minimality", cmd_minimality, "required", _SAMPLING, 3),
    ("multitype", cmd_multitype, "required", _SAMPLING, 3),
    ("witness", cmd_witness, "required", _SAMPLING, 3),
    ("hormander", cmd_hormander, "required",
     ("order", "seed", "trials", "base", "max_length"), 1),
    ("levi", cmd_levi, "required", _SAMPLING, 1),
    ("e1det", cmd_e1det, "required", ("order",), 1),
    ("orbit", cmd_orbit, "required", ("order", "seed", "trials", "kmax"), 1),
    ("corpus", cmd_corpus, None, (), 1),
    ("checkall", cmd_checkall, "optional", ("seed", "trials"), 1),
)


@functools.cache
def build_parser():
    """The parser: each subcommand accepts only the flags it reads, so an
    ignored flag (with its value) is a usage error rather than silently
    dropped.  Built once per process: parsing keeps no state in it."""
    parser = _Parser(
        prog="segrechains",
        description="Exact Segre-chain geometry of CR-generic manifolds",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, manifest, flags, kmax_min in _COMMANDS:
        p = sub.add_parser(name)
        if manifest == "required":
            p.add_argument("manifest", help="manifest file path")
        elif manifest == "optional":
            p.add_argument("manifest", nargs="?", default=None,
                           help="directory of manifests (default: bundled corpus)")
        for flag, (option, settings) in _FLAGS.items():
            if flag in flags:
                p.add_argument(option, **settings)
            else:
                nargs = 0 if settings.get("action") == "store_true" else 1
                p.add_argument(option, action=_Refused, nargs=nargs,
                               dest=argparse.SUPPRESS, help=argparse.SUPPRESS)
        p.add_argument("--format", choices=("human", "machine"), default="human")
        # main and the report provenance read these whether declared or not
        p.set_defaults(func=func, kmax_min=kmax_min, order=None, seed=0,
                       trials=DEFAULT_TRIALS, kmax=None, max_length=None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.trials < 1:
            raise ParseError("--trials must be >= 1")
        if args.kmax is not None and args.kmax < args.kmax_min:
            raise ParseError(f"--kmax must be >= {args.kmax_min}")
        args.order = _order_option(args.order)
        if args.max_length is not None and args.max_length < 2:
            raise ParseError("--max-length must be >= 2")
        return args.func(args)
    except (ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SegreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
