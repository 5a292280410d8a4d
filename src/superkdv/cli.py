"""Batch command-line front end.

Computes correlator tables, volume polynomials and topological-
recursion tables, runs the verification suites, and caches canonical
JSON artifacts on disk keyed by a hash of the request.  `verify` exits
0 only when every residual is zero (symbolic checks) or within
tolerance (numeric checks); usage errors exit 2.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from functools import lru_cache
from importlib import import_module
from itertools import combinations_with_replacement
from pathlib import Path

import click

from . import __version__
from .exactcore import ExactCoreError, Truncation, euler_characteristic_constant
from .tables import canonical_bytes

SCHEMA_VERSION = 1

# each command imports the layers it computes with in its own body, before
# `fetch_or_compute`: `import superkdv.cli` loads no math layer, and timing
# `fetch_or_compute` times the compute alone, with no first import in it
ENGINES = {
    "kw": ("virasoro", "kw_correlators"),
    "bgw": ("virasoro", "bgw_correlators"),
    "spin": ("spincorr", "spin_correlators"),
    "zk": ("kappa", "zk_correlators"),
    "zk-bracket": ("kappa", "bracket_psi_correlators"),
}


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


def fetch_or_compute(cache_dir: Path | None, request: dict, compute) -> tuple[bytes, str]:
    """Return (payload bytes, source) with source in {fresh, hit, uncached}.

    A cache entry stores the request, the payload text and its sha256;
    corrupted or mismatched entries are recomputed and overwritten.  The
    request carries the schema version and the code fingerprint, so
    entries written by other code miss.
    """
    if cache_dir is None:
        return canonical_bytes(compute()), "uncached"
    request = dict(request, schema=SCHEMA_VERSION, code=_code_fingerprint())
    key = hashlib.sha256(canonical_bytes(request)).hexdigest()
    path = cache_dir / f"{key}.json"
    try:
        entry = json.loads(path.read_text())
        payload = entry["payload"].encode()
        if (
            entry.get("request") == request
            and entry.get("sha256") == hashlib.sha256(payload).hexdigest()
        ):
            return payload, "hit"
    except (OSError, ValueError, KeyError, AttributeError, TypeError):
        pass
    payload = canonical_bytes(compute())
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
            os.replace(tmp, path)
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
    if fmt == "json":
        click.echo(payload.decode())
        return
    click.echo(renderer(json.loads(payload), fmt))


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
# commands


def _trunc_options(f):
    # defaults sized so each verify suite finishes in well under a minute
    f = click.option("--gmax", default=2, show_default=True)(f)
    f = click.option("--kmax", default=6, show_default=True)(f)
    f = click.option("--dmax", default=4, show_default=True)(f)
    f = click.option("--smax", default=6, show_default=True)(f)
    return f


@click.group()
@click.option(
    "--cache-dir",
    type=click.Path(path_type=Path),
    default=None,
    help="cache directory (default $SUPERKDV_CACHE_DIR or ~/.cache/superkdv)",
)
@click.option("--no-cache", is_flag=True, help="disable the artifact cache")
@click.pass_context
def main(ctx, cache_dir, no_cache):
    """Exact intersection-number tables, KdV tau functions, super
    volumes and topological recursion."""
    ctx.ensure_object(dict)
    ctx.obj["cache"] = None if no_cache else (cache_dir or _default_cache_dir())


@main.command()
@click.argument("engine", type=click.Choice(sorted(ENGINES)))
@_trunc_options
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="json")
@click.pass_context
def correlators(ctx, engine, gmax, kmax, dmax, smax, fmt):
    """Exact correlator table for one engine."""
    trunc = _wrap(Truncation)(gmax, kmax, dmax, smax)
    request = {"command": "correlators", "engine": engine, "trunc": trunc.to_json()}
    layer, name = ENGINES[engine]
    build = getattr(import_module(f".{layer}", __package__), name)

    def compute():
        return build(trunc).to_json()

    payload, source = fetch_or_compute(ctx.obj["cache"], request, _wrap(compute))
    click.echo(f"# cache {source}", err=True)
    _emit(payload, fmt, _render_table)


@main.command()
@click.option("--g", required=True, type=int)
@click.option("--n", required=True, type=int)
@click.option("--smax", default=4, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="text")
@click.pass_context
def volume(ctx, g, n, smax, fmt):
    """Volume polynomial V[g,n](s, L) through s^smax."""
    from .supervol import volume_polynomial

    request = {"command": "volume", "g": g, "n": n, "smax": smax}

    def compute():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return volume_polynomial(g, n, smax).to_json()

    payload, source = fetch_or_compute(ctx.obj["cache"], request, _wrap(compute))
    click.echo(f"# cache {source}", err=True)
    _emit(payload, fmt, _render_volume)


@main.command()
# spectral.CURVE_LABELS, spelled out so that building the command loads no
# layer; a test pins the two equal
@click.option("--curve", type=click.Choice(("airy", "bessel", "ck", "cns")), required=True)
@click.option("--gmax", default=2, show_default=True)
@click.option("--nmax", default=2, show_default=True)
@click.option("--order", default=40, show_default=True)
@click.option("--eta", is_flag=True, help="re-expand the ck table in the eta coordinate")
@click.option("--smax", default=4, show_default=True, help="s-truncation of the eta table")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="json")
@click.pass_context
def tr(ctx, curve, gmax, nmax, order, eta, smax, fmt):
    """Topological-recursion correlator table for one spectral curve."""
    from .spectral import eta_reexpand, spectral_curve, tr_correlators

    request = {
        "command": "tr",
        "curve": curve,
        "gmax": gmax,
        "nmax": nmax,
        "order": order,
        "eta": eta,
        "smax": smax if eta else None,
    }

    def compute():
        table = tr_correlators(spectral_curve(curve, order), gmax, nmax)
        if eta:
            table = eta_reexpand(table, smax)
        return table.to_json()

    payload, source = fetch_or_compute(ctx.obj["cache"], request, _wrap(compute))
    click.echo(f"# cache {source}", err=True)
    _emit(payload, fmt, _render_tr_table)


def _wrap(compute):
    """Turn ExactCoreError from bad parameters into a usage error (exit 2)."""

    def run(*args):
        try:
            return compute(*args)
        except ExactCoreError as exc:
            raise click.UsageError(str(exc)) from exc

    return run


# ---------------------------------------------------------------------------
# verification suites


def _verify_theorem1(trunc: Truncation) -> dict:
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
    from .spincorr import _spin_genus0, genus0_closed_form

    compared = 0
    mismatches = 0
    for n in range(3, 6):
        for m in combinations_with_replacement(range(5), n):
            if sum(m) > 4:
                continue
            compared += 1
            if _spin_genus0(tuple(sorted(m))) != genus0_closed_form(m):
                mismatches += 1
    return {"compared": compared, "mismatches": mismatches, "ok": mismatches == 0}


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


def _verify_recursion(trunc: Truncation) -> dict:
    # the numeric route is the package's only user of mpmath; importing
    # it here keeps mpmath out of every other command's process
    from . import swnumeric
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
    "recursion": _verify_recursion,
}
# the layers each suite computes with, loaded before `fetch_or_compute`;
# `recursion` imports swnumeric (and so mpmath) only when it computes
SUITE_LAYERS = {
    "theorem1": ("spincorr",),
    "kdv": ("kappa", "spincorr", "virasoro"),
    "homogeneity": ("spincorr", "virasoro"),
    "virasoro": ("virasoro",),
    "vanishing": ("kappa",),
    "trr": ("spincorr",),
    "laplace": ("spectral", "supervol"),
    "recursion": ("supervol",),
}
# suites that read no window: one cache entry serves every --gmax/--kmax/--dmax/--smax
WINDOWLESS = ("vanishing", "trr", "laplace")


@main.command()
@click.argument("suite", type=click.Choice(tuple(VERIFY_IMPL)))
@_trunc_options
@click.pass_context
def verify(ctx, suite, gmax, kmax, dmax, smax):
    """Run one verification suite; exit 0 only if everything passes."""
    trunc = _wrap(Truncation)(gmax, kmax, dmax, smax)
    window = {} if suite in WINDOWLESS else {"trunc": trunc.to_json()}
    request = {"command": "verify", "suite": suite, **window}
    for layer in SUITE_LAYERS[suite]:
        import_module(f".{layer}", __package__)

    def compute():
        report = VERIFY_IMPL[suite](trunc)
        return {"suite": suite, **report}

    payload, source = fetch_or_compute(ctx.obj["cache"], request, _wrap(compute))
    click.echo(f"# cache {source}", err=True)
    click.echo(payload.decode())
    if not json.loads(payload).get("ok"):
        raise SystemExit(1)


if __name__ == "__main__":  # pragma: no cover
    main()
