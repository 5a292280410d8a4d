"""Batch command-line front end.

Computes correlator tables, volume polynomials and topological-
recursion tables, runs the verification suites, and caches canonical
JSON artifacts on disk keyed by a hash of the request.  `verify` exits
0 only when every residual is zero (symbolic checks) or within
tolerance (numeric checks); usage errors exit 2.

Each command keys its request from the parsed options and reads the
cache before it loads any math layer, so `import superkdv.cli` and a
cache hit load none; on a miss the command loads its layers and then
computes through `fetch_or_compute`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import warnings
from functools import lru_cache
from importlib import import_module
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .exactcore import Truncation

SCHEMA_VERSION = 1

# on a miss each command imports the layers it computes with before
# `fetch_or_compute`, so timing `fetch_or_compute` times the compute alone,
# with no first import in it
ENGINES = {
    "kw": ("virasoro", "kw_correlators"),
    "bgw": ("virasoro", "bgw_correlators"),
    "spin": ("spincorr", "spin_correlators"),
    "zk": ("kappa", "zk_correlators"),
    "zk-bracket": ("kappa", "bracket_psi_correlators"),
}
# spectral.CURVE_LABELS, spelled out so that parsing loads no layer; a test
# pins the two equal
CURVES = ("airy", "bessel", "ck", "cns")
FORMATS = ("json", "csv", "text")


def canonical_bytes(payload: dict) -> bytes:
    """The one byte form of a JSON payload: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


# ---------------------------------------------------------------------------
# cache


def _default_cache_dir() -> Path:
    env = os.environ.get("SUPERKDV_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "superkdv"


@lru_cache(maxsize=None)
def _code_fingerprint() -> str:
    """Package version plus a sha256 over the package's own source files."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return f"{__version__}+{digest.hexdigest()}"


def _entry(request: dict) -> tuple[dict, str]:
    """The request as its cache entry records it, with the schema version
    and the code fingerprint, and the entry's key."""
    request = dict(request, schema=SCHEMA_VERSION, code=_code_fingerprint())
    return request, hashlib.sha256(canonical_bytes(request)).hexdigest()


def cached_payload(cache_dir: Path, request: dict) -> bytes | None:
    """The payload cached for `request`, or None.

    A corrupted entry, or one written for another request, schema or
    code, counts as absent.
    """
    request, key = _entry(request)
    try:
        entry = json.loads((cache_dir / f"{key}.json").read_text())
        payload = entry["payload"].encode()
        if (
            entry.get("request") == request
            and entry.get("sha256") == hashlib.sha256(payload).hexdigest()
        ):
            return payload
    except (OSError, ValueError, KeyError, AttributeError, TypeError):
        pass
    return None


def fetch_or_compute(cache_dir: Path | None, request: dict, compute) -> tuple[bytes, str]:
    """Compute the payload of a request the cache missed and store it;
    return (payload bytes, source) with source in {fresh, uncached}.

    A cache entry stores the request, the payload text and its sha256;
    it overwrites an entry that `cached_payload` rejected.
    """
    payload = canonical_bytes(compute())
    if cache_dir is None:
        return payload, "uncached"
    request, key = _entry(request)
    entry = {
        "request": request,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "payload": payload.decode(),
    }
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=f"{key}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(entry, sort_keys=True))
            os.replace(tmp, cache_dir / f"{key}.json")
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        warnings.warn(f"cache directory not writable ({exc}); proceeding uncached")
        return payload, "uncached"
    return payload, "fresh"


# ---------------------------------------------------------------------------
# output formatting


def _emit(payload: bytes, fmt: str, renderer) -> None:
    print(payload.decode() if fmt == "json" else renderer(json.loads(payload), fmt))


def _render_table(data: dict, fmt: str) -> str:
    rows = data["entries"]
    if fmt == "csv":
        lines = ["g,k,v"]
        for row in rows:
            lines.append(f"{row['g']},{';'.join(str(x) for x in row['k'])},{row['v']}")
        return "\n".join(lines)
    lines = [f"# engine {data['engine']}"]
    for row in rows:
        lines.append(f"g={row['g']} k={row['k']} v={row['v']}")
    return "\n".join(lines)


def _render_tr_table(data: dict, fmt: str) -> str:
    rows = data["entries"]
    if fmt == "csv":
        lines = ["g,k,s2,pi2,v"]
        for row in rows:
            k = ";".join(str(x) for x in row["k"])
            for s2p, pi2p, v in row["coeff"]:
                lines.append(f"{row['g']},{k},{s2p},{pi2p},{v}")
        return "\n".join(lines)
    lines = [f"# engine {data['engine']}"]
    for row in rows:
        bits = []
        for s2p, pi2p, v in row["coeff"]:
            mono = "".join(
                [f"*s^{2 * s2p}" if s2p else "", f"*pi^{2 * pi2p}" if pi2p else ""]
            )
            bits.append(f"{v}{mono}")
        lines.append(f"g={row['g']} k={row['k']} v={' + '.join(bits)}")
    return "\n".join(lines)


def _render_volume(data: dict, fmt: str) -> str:
    g, n, smax = data["g"], data["n"], data["smax"]
    if fmt == "csv":
        lines = ["s2,k,pi2,v"]
        for term in data["terms"]:
            k = ";".join(str(x) for x in term["k"])
            for power, v in term["pi2"]:
                lines.append(f"{term['s2']},{k},{power},{v}")
        return "\n".join(lines)
    by_order: dict[int, list[str]] = {}
    for term in data["terms"]:
        bits = []
        for power, v in term["pi2"]:
            piece = v
            if power:
                piece += f"*pi^{2 * power}" if power > 1 else "*pi^2"
            bits.append(piece)
        piece = " + ".join(bits)
        if len(bits) > 1:
            piece = f"({piece})"
        for i, ki in enumerate(term["k"]):
            if ki:
                piece += f"*L{i + 1}^{2 * ki}"
        by_order.setdefault(term["s2"], []).append(piece)
    chunks = []
    for a in sorted(by_order):
        body = " + ".join(by_order[a])
        if a == 0:
            chunks.append(body)
        else:
            prefix = "s^2" if a == 1 else f"s^{2 * a}"
            chunks.append(f"{prefix}*({body})")
    chunks.append(f"O(s^{smax + 2})")
    return f"V[{g},{n}] = " + " + ".join(chunks)


# ---------------------------------------------------------------------------
# verification suites


def _verify_theorem1(trunc: Truncation) -> dict:
    from .exactcore import ExactCoreError
    from .spincorr import triple_route_compare

    report = triple_route_compare(trunc)
    if not report["compared"]:
        raise ExactCoreError(
            "the theorem1 window compares no coefficient of Z^BGW, Z^Omega or D Z^K"
        )
    return {
        "trunc": report["trunc"],
        "compared": report["compared"],
        "nonzero": report["nonzero"],
        "mismatches": len(report["mismatches"]),
        "ok": not report["mismatches"],
    }


def _verify_kdv(trunc: Truncation) -> dict:
    from .exactcore import Truncation
    from .kappa import zk_free_energy
    from .spincorr import spin_free_energy
    from .virasoro import free_energy, kdv_residual

    # the residual reads five t_0-derivatives; dmax below 5 certifies nothing
    trunc = Truncation(trunc.gmax, trunc.kmax, max(trunc.dmax, 5), trunc.smax)
    kw = Truncation(trunc.gmax, trunc.kmax, trunc.dmax, 0)
    spin = Truncation(trunc.gmax, min(trunc.kmax, 2), trunc.dmax, min(trunc.smax, 6))
    cases = {}
    builders = {
        "kw": lambda: free_energy("KW", kw).restrict(kw),
        "bgw": lambda: free_energy("gBGW", trunc).restrict(trunc),
        "zk": lambda: zk_free_energy(trunc, graded=False),
        "spin": lambda: spin_free_energy(spin),
    }
    for name, build in builders.items():
        res, deg = kdv_residual(build())
        cases[name] = {"zero": res.is_zero(), "certified_degree_drop": deg}
    return {
        "trunc": trunc.to_json(),
        "cases": cases,
        "ok": all(c["zero"] for c in cases.values()),
    }


def _verify_homogeneity(trunc: Truncation) -> dict:
    from .exactcore import ExactCoreError, Truncation
    from .spincorr import spin_free_energy
    from .virasoro import check_homogeneity, free_energy

    # at genus 0 the first nonzero KW residual key, from <tau_0^3>_0, has
    # t-degree 2, which a certified degree dmax - 1 <= 1 does not hold
    if trunc.gmax == 0 and trunc.dmax <= 2:
        raise ExactCoreError("the KW negative control needs gmax >= 1 or dmax >= 3")
    kw_trunc = Truncation(trunc.gmax, trunc.kmax, trunc.dmax, 0)
    bgw = check_homogeneity(free_energy("gBGW", trunc).restrict(trunc)).is_zero()
    spin_trunc = Truncation(trunc.gmax, min(trunc.kmax, 3), min(trunc.dmax, 4), min(trunc.smax, 6))
    spin = check_homogeneity(spin_free_energy(spin_trunc)).is_zero()
    kw = check_homogeneity(free_energy("KW", kw_trunc).restrict(kw_trunc)).is_zero()
    return {
        "trunc": trunc.to_json(),
        "bgw_zero": bgw,
        "spin_zero": spin,
        "kw_zero": kw,
        "ok": bgw and spin and not kw,
    }


def _verify_virasoro(trunc: Truncation) -> dict:
    from .exactcore import Truncation
    from .virasoro import virasoro_oracle_residual

    mmax = 4
    cases = {}
    for model, mlo in (("KW", -1), ("gBGW", 0)):
        tr_model = trunc if model == "gBGW" else Truncation(trunc.gmax, trunc.kmax, trunc.dmax, 0)
        cases[model] = {
            str(m): virasoro_oracle_residual(model, tr_model, m).is_zero()
            for m in range(mlo, mmax + 1)
        }
    return {
        "trunc": trunc.to_json(),
        "cases": cases,
        "ok": all(all(v.values()) for v in cases.values()),
    }


def _verify_vanishing(trunc: Truncation) -> dict:
    from .exactcore import ExactCoreError, euler_characteristic_constant
    from .kappa import k_m_integral, vanishing_check

    checks = {
        "genus2_one_point": vanishing_check(2, 1, 4, psi_exponents=(0,)) == 0,
        "genus3_kappa": vanishing_check(3, 0, 5, companion_kappa=(1,)) == 0,
        "exceptional_value": k_m_integral(2, 0, 3) == euler_characteristic_constant(2),
    }
    try:
        vanishing_check(2, 0, 3)
        checks["exceptional_rejected"] = False
    except ExactCoreError:
        checks["exceptional_rejected"] = True
    return {"checks": checks, "ok": all(checks.values())}


def _verify_trr(trunc: Truncation) -> dict:
    from .exactcore import fixed_sum_multisets, mismatches
    from .spincorr import _spin_genus0, genus0_closed_form

    keys = [m for n in range(3, 6) for w in range(5) for m in fixed_sum_multisets(n, w, w)]
    trr = {m: _spin_genus0(m) for m in keys}
    bad = mismatches(trr, {m: genus0_closed_form(m) for m in keys}, keys)
    return {"compared": len(keys), "mismatches": len(bad), "ok": not bad}


def _verify_laplace(trunc: Truncation) -> dict:
    from .spectral import cns_laplace_check

    cases = {}
    for g, n in [(1, 1), (0, 3), (1, 2)]:
        rep = cns_laplace_check(g, n)
        cases[f"{g},{n}"] = {
            "compared": rep["compared"],
            "mismatches": len(rep["mismatches"]),
        }
    return {
        "cases": cases,
        "ok": all(c["mismatches"] == 0 for c in cases.values()),
    }


def _verify_tr(trunc: Truncation) -> dict:
    from .spectral import cns_laplace_check, compare_to_tables, eta_spin_compare

    reports = {curve: compare_to_tables(curve, 4) for curve in ("airy", "bessel", "ck")}
    reports["ck-eta"] = eta_spin_compare("ck", 3, 4)
    for g, n in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (2, 3)]:
        reports[f"cns {g},{n}"] = cns_laplace_check(g, n)
    cases = {
        name: {"compared": rep["compared"], "mismatches": len(rep["mismatches"])}
        for name, rep in reports.items()
    }
    # a case that compares no key would pass vacuously
    return {
        "cases": cases,
        "ok": all(c["compared"] and not c["mismatches"] for c in cases.values()),
    }


def _verify_recursion(trunc: Truncation) -> dict:
    # the numeric route is the package's only user of mpmath; importing
    # it here keeps mpmath out of every other command's process
    from . import swnumeric
    from .exactcore import Truncation
    from .supervol import translated_virasoro_check

    exact_trunc = Truncation(
        trunc.gmax, min(trunc.kmax, 2), min(trunc.dmax, 3), min(trunc.smax, 6)
    )
    exact = translated_virasoro_check(exact_trunc)
    numeric = {}
    tol = {"0,1": 1e-9, "1,1": 1e-8, "0,3": 1e-8}
    cases = [(0, 1, [1.3]), (1, 1, [1.0]), (0, 3, [1.0, 0.7, 1.3])]
    numeric_ok = True
    for g, n, L in cases:
        orders = swnumeric.recursion_residual_orders(
            g, n, L, smax=4, **swnumeric.PASSING_CONVENTION
        )
        worst = max(abs(v) for v in orders.values())
        ok = worst < tol[f"{g},{n}"]
        numeric_ok = numeric_ok and ok
        numeric[f"{g},{n}"] = {
            "max_residual": float(swnumeric.mp.nstr(worst, 6)),
            "ok": ok,
        }
    return {
        "exact_trunc": exact_trunc.to_json(),
        "exact_all_zero": exact["all_zero"],
        "m_checked": exact["m_checked"],
        "convention": swnumeric.PASSING_CONVENTION,
        "numeric": numeric,
        "ok": exact["all_zero"] and numeric_ok,
    }


VERIFY_IMPL = {
    "theorem1": _verify_theorem1,
    "kdv": _verify_kdv,
    "homogeneity": _verify_homogeneity,
    "virasoro": _verify_virasoro,
    "vanishing": _verify_vanishing,
    "trr": _verify_trr,
    "laplace": _verify_laplace,
    "tr": _verify_tr,
    "recursion": _verify_recursion,
}
# the layers each suite computes with, loaded on a miss before `fetch_or_compute`;
# `recursion` imports swnumeric (and so mpmath) only when it computes
SUITE_LAYERS = {
    "theorem1": ("spincorr",),
    "kdv": ("kappa", "spincorr", "virasoro"),
    "homogeneity": ("spincorr", "virasoro"),
    "virasoro": ("virasoro",),
    "vanishing": ("kappa",),
    "trr": ("spincorr",),
    "laplace": ("spectral", "supervol"),
    "tr": ("spectral", "kappa", "virasoro", "supervol"),
    "recursion": ("supervol",),
}
# suites that read no window: one cache entry serves every --gmax/--kmax/--dmax/--smax
WINDOWLESS = ("vanishing", "trr", "laplace", "tr")


# ---------------------------------------------------------------------------
# commands


def _window(args) -> dict:
    """The parsed window, as `Truncation.to_json()` writes it: a request is
    keyed without building a `Truncation`."""
    return {"gmax": args.gmax, "kmax": args.kmax, "dmax": args.dmax, "smax": args.smax}


def _truncation(args) -> Truncation:
    from .exactcore import Truncation

    return Truncation(args.gmax, args.kmax, args.dmax, args.smax)


def _usage_errors(args, run):
    """run(), with an ExactCoreError from bad parameters turned into a
    usage error (exit 2)."""
    from .exactcore import ExactCoreError

    try:
        return run()
    except ExactCoreError as exc:
        args.parser.error(str(exc))


def _serve(args, request: dict, prepare) -> bytes:
    """The payload of `request`; its source goes to stderr.

    The cache is read before any math layer loads.  On a miss, `prepare()`
    loads the command's layers and returns the compute that
    `fetch_or_compute` runs.
    """
    payload = None if args.cache is None else cached_payload(args.cache, request)
    source = "hit"
    if payload is None:
        payload, source = _usage_errors(
            args, lambda: fetch_or_compute(args.cache, request, prepare())
        )
    print(f"# cache {source}", file=sys.stderr)
    return payload


def correlators(args) -> None:
    """Exact correlator table for one engine."""
    request = {"command": "correlators", "engine": args.engine, "trunc": _window(args)}

    def prepare():
        layer, name = ENGINES[args.engine]
        build = getattr(import_module(f".{layer}", __package__), name)
        trunc = _truncation(args)
        return lambda: build(trunc).to_json()

    _emit(_serve(args, request, prepare), args.fmt, _render_table)


def volume(args) -> None:
    """Volume polynomial V[g,n](s, L) through s^smax."""
    g, n, smax = args.g, args.n, args.smax
    request = {"command": "volume", "g": g, "n": n, "smax": smax}

    def prepare():
        from .supervol import volume_polynomial

        def compute():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return volume_polynomial(g, n, smax).to_json()

        return compute

    _emit(_serve(args, request, prepare), args.fmt, _render_volume)


def tr(args) -> None:
    """Topological-recursion correlator table for one spectral curve."""
    request = {
        "command": "tr",
        "curve": args.curve,
        "gmax": args.gmax,
        "nmax": args.nmax,
        "eta": args.eta,
        "smax": args.smax if args.eta else None,
    }

    def prepare():
        from .spectral import eta_reexpand, spectral_curve, tr_correlators

        def compute():
            table = tr_correlators(spectral_curve(args.curve), args.gmax, args.nmax)
            if args.eta:
                table = eta_reexpand(table, args.smax)
            return table.to_json()

        return compute

    _emit(_serve(args, request, prepare), args.fmt, _render_tr_table)


def verify(args) -> None:
    """Run one verification suite; exit 0 only if everything passes."""
    suite = args.suite
    if suite in WINDOWLESS:
        # the key leaves the window out, so its check cannot wait for a miss
        _usage_errors(args, lambda: _truncation(args))
        request = {"command": "verify", "suite": suite}
    else:
        request = {"command": "verify", "suite": suite, "trunc": _window(args)}

    def prepare():
        for layer in SUITE_LAYERS[suite]:
            import_module(f".{layer}", __package__)
        trunc = _truncation(args)
        return lambda: {"suite": suite, **VERIFY_IMPL[suite](trunc)}

    payload = _serve(args, request, prepare)
    print(payload.decode())
    if not json.loads(payload).get("ok"):
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# argument parsing


def _parser(prog_name: str | None) -> argparse.ArgumentParser:
    def with_help(parser):
        # --help alone (no -h), and no prefix matching of long options
        parser.add_argument("--help", action="help", help="show this message and exit")
        return parser

    parser = with_help(
        argparse.ArgumentParser(
            prog=prog_name,
            description="Exact intersection-number tables, KdV tau functions, "
            "super volumes and topological recursion.",
            allow_abbrev=False,
            add_help=False,
        )
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        metavar="PATH",
        help="cache directory (default $SUPERKDV_CACHE_DIR or ~/.cache/superkdv)",
    )
    parser.add_argument("--no-cache", action="store_true", help="disable the artifact cache")
    commands = parser.add_subparsers(title="commands", required=True, metavar="COMMAND")

    def command(run, fmt):
        sub = with_help(
            commands.add_parser(
                run.__name__,
                help=run.__doc__,
                description=run.__doc__,
                formatter_class=argparse.ArgumentDefaultsHelpFormatter,
                allow_abbrev=False,
                add_help=False,
            )
        )
        sub.set_defaults(run=run, parser=sub)
        if fmt:
            sub.add_argument("--format", dest="fmt", choices=FORMATS, default=fmt, help="output format")
        return sub

    def window(sub):
        # defaults sized so each verify suite finishes in well under a minute
        sub.add_argument("--gmax", type=int, default=2, help="max genus")
        sub.add_argument("--kmax", type=int, default=6, help="max t-index")
        sub.add_argument("--dmax", type=int, default=4, help="max total t-degree")
        sub.add_argument("--smax", type=int, default=6, help="max power of s")

    sub = command(correlators, "json")
    sub.add_argument("engine", choices=sorted(ENGINES))
    window(sub)

    sub = command(volume, "text")
    sub.add_argument("--g", type=int, required=True, help="genus")
    sub.add_argument("--n", type=int, required=True, help="number of boundaries")
    sub.add_argument("--smax", type=int, default=4, help="max power of s")

    sub = command(tr, "json")
    sub.add_argument("--curve", choices=CURVES, required=True)
    sub.add_argument("--gmax", type=int, default=2, help="max genus")
    sub.add_argument("--nmax", type=int, default=2, help="max number of points")
    sub.add_argument("--order", type=int, default=40, help="ignored: each genus reads the curve exactly")
    sub.add_argument("--eta", action="store_true", help="re-expand the ck table in the eta coordinate")
    sub.add_argument("--smax", type=int, default=4, help="s-truncation of the eta table")

    sub = command(verify, None)
    sub.add_argument("suite", choices=tuple(VERIFY_IMPL))
    window(sub)
    return parser


def main(argv=None, prog_name: str | None = None, standalone_mode: bool = True) -> None:
    """Run one command; `argv` defaults to the process arguments.

    Usage errors raise SystemExit(2) and a failed check SystemExit(1).
    On success main returns, or in standalone mode exits 0.
    """
    args = _parser(prog_name).parse_args(argv)
    args.cache = None if args.no_cache else (args.cache_dir or _default_cache_dir())
    args.run(args)
    if standalone_mode:
        raise SystemExit(0)


if __name__ == "__main__":  # pragma: no cover
    main(sys.argv[1:], prog_name="superkdv", standalone_mode=True)
