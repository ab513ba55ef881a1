"""Command-line front end: build algebras, run checkers, sample groups,
invert finite metrics, and emit replayable JSON reports.

Exit codes: 0 when the requested computation ran (regardless of the
mathematical outcome, which lives in the report), 2 when an ``--expect``
option or a built-in guarantee was violated, and 1 for usage or I/O errors.
Every report embeds the seed, sample counts, tolerance, and a fingerprint
of the algebra's structure constants, so runs can be replayed exactly;
with ``--no-timestamp`` the emitted bytes are a pure function of argv and
input files.
"""

from __future__ import annotations

import os
import sys
from datetime import datetime, timezone

import click
import numpy as np

from heislab import distortion, finite_metric, hgroup, hlie, inversion
from heislab.util import canonical_json

__all__ = ["main", "run", "entrypoint", "MathCheckFailed"]


class MathCheckFailed(Exception):
    """A mathematical expectation stated on the command line was violated."""


def _load_algebra(selector: str) -> hlie.HTypeAlgebra:
    if selector.endswith(".json") or os.path.sep in selector or os.path.exists(selector):
        if not os.path.exists(selector):
            raise ValueError(f"algebra spec file not found: {selector}")
        return hlie.load_algebra_spec(selector)
    return hlie.algebra_from_name(selector)


def _emit(payload: dict, output: str | None, no_timestamp: bool) -> None:
    if not no_timestamp:
        payload = dict(payload)
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    text = canonical_json(payload)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _common(f):
    f = click.option("--seed", type=int, default=0, show_default=True,
                     help="Seed of the random stream.")(f)
    f = click.option("--output", type=click.Path(dir_okay=False), default=None,
                     help="Report path (default: stdout).")(f)
    f = click.option("--no-timestamp", is_flag=True, default=False,
                     help="Omit the timestamp so the report bytes are reproducible.")(f)
    return f


@click.group()
def main() -> None:
    """Numerical laboratory for H-type groups and their gauge inversions."""


# ---------------------------------------------------------------------------
# algebra


@main.group()
def algebra() -> None:
    """Division-algebra arithmetic checks."""


@algebra.command("check")
@click.option("--kind", type=click.Choice(["real", "complex", "quaternion", "octonion", "all"]),
              default="all", show_default=True)
@click.option("--samples", type=int, default=100000, show_default=True)
@click.option("--tolerance", type=float, default=1e-12, show_default=True,
              help="Relative tolerance of the composition-law check.")
@_common
def algebra_check(kind, samples, tolerance, seed, output, no_timestamp) -> None:
    """Composition law, associativity and alternativity over random samples."""
    if samples < 1:
        raise click.UsageError("--samples must be >= 1")
    from heislab import algebra as alg_mod
    kinds = list(alg_mod.AlgebraKind) if kind == "all" else [alg_mod.AlgebraKind(kind)]
    rng = np.random.default_rng(seed)
    results = []
    failed = False
    for k in kinds:
        a = alg_mod.random_elements(k, samples, rng)
        b = alg_mod.random_elements(k, samples, rng)
        ab = alg_mod.mul_arrays(k, a, b)
        scale = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        composition = float(np.max(np.abs(np.linalg.norm(ab, axis=1) - scale) / scale))
        c = alg_mod.random_elements(k, samples, rng)
        left = alg_mod.mul_arrays(k, ab, c)
        right = alg_mod.mul_arrays(k, a, alg_mod.mul_arrays(k, b, c))
        assoc_scale = (scale * np.linalg.norm(c, axis=1))[:, None]
        associativity = float(np.max(np.abs(left - right) / assoc_scale))
        entry = {"kind": k.value, "composition_residual": composition}
        if k is alg_mod.AlgebraKind.OCTONION:
            aab = alg_mod.mul_arrays(k, a, alg_mod.mul_arrays(k, a, b))
            aa_b = alg_mod.mul_arrays(k, alg_mod.mul_arrays(k, a, a), b)
            alt_scale = (np.linalg.norm(a, axis=1) ** 2 * np.linalg.norm(b, axis=1))[:, None]
            entry["alternativity_residual"] = float(np.max(np.abs(aab - aa_b) / alt_scale))
            ok = composition <= tolerance and entry["alternativity_residual"] <= 1e-12
        else:
            entry["associativity_residual"] = associativity
            ok = composition <= tolerance and associativity <= 1e-12
        entry["passed"] = ok
        failed = failed or not ok
        results.append(entry)
    _emit({"command": "algebra check", "samples": samples, "seed": seed,
           "tolerance": tolerance, "results": results}, output, no_timestamp)
    if failed:
        raise MathCheckFailed("an algebra arithmetic check exceeded its tolerance")


# ---------------------------------------------------------------------------
# lie


@main.group()
def lie() -> None:
    """Structure checks of step-two algebras."""


@lie.command("check-htype")
@click.option("--algebra", "selector", required=True,
              help="Builtin name (H_R:n, H_C:n, H_H:n, H_O, truncated_HH, degenerate_sum) "
                   "or algebra-spec JSON path.")
@click.option("--samples", type=int, default=10000, show_default=True)
@click.option("--tolerance", type=float, default=hlie.DEFAULT_TOL, show_default=True)
@click.option("--expect", type=click.Choice(["htype", "not-htype"]), default=None,
              help="Fail (exit 2) unless the verdict matches.")
@_common
def lie_check_htype(selector, samples, tolerance, expect, seed, output, no_timestamp) -> None:
    """Certify or refute |J_Z X| = |Z||X|."""
    alg = _load_algebra(selector)
    report = hlie.check_h_type(alg, samples=samples, tol=tolerance, seed=seed)
    _emit({"command": "lie check-htype", **report.to_dict()}, output, no_timestamp)
    if expect == "htype" and not report.is_h_type:
        raise MathCheckFailed(f"{alg.label} failed the Heisenberg-type check "
                              f"(residual {report.max_residual:.3e})")
    if expect == "not-htype" and report.is_h_type:
        raise MathCheckFailed(f"{alg.label} unexpectedly passed the Heisenberg-type check")


@lie.command("check-j2")
@click.option("--algebra", "selector", required=True,
              help="Builtin name or algebra-spec JSON path.")
@click.option("--samples", type=int, default=10000, show_default=True)
@click.option("--tolerance", type=float, default=hlie.DEFAULT_TOL, show_default=True)
@click.option("--expect", type=click.Choice(["j2", "not-j2"]), default=None,
              help="Fail (exit 2) unless the verdict matches.")
@_common
def lie_check_j2(selector, samples, tolerance, expect, seed, output, no_timestamp) -> None:
    """Certify or refute the J^2-condition (requires a Heisenberg-type algebra)."""
    alg = _load_algebra(selector)
    report = hlie.check_j2(alg, samples=samples, tol=tolerance, seed=seed)
    _emit({"command": "lie check-j2", **report.to_dict()}, output, no_timestamp)
    if expect == "j2" and not report.satisfies_j2:
        raise MathCheckFailed(f"{alg.label} failed the J^2 check "
                              f"(residual {report.max_residual:.3e})")
    if expect == "not-j2" and report.satisfies_j2:
        raise MathCheckFailed(f"{alg.label} unexpectedly satisfies the J^2-condition")


# ---------------------------------------------------------------------------
# group


@main.group()
def group() -> None:
    """Point sampling and distance matrices in exponential coordinates."""


@group.command("sample")
@click.option("--algebra", "selector", required=True)
@click.option("--count", type=int, required=True, help="Number of points (>= 1).")
@click.option("--radius", type=float, default=1.0, show_default=True,
              help="Gauge radius of the sampled coordinate box.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              help="CSV path (default: stdout).")
def group_sample(selector, count, radius, seed, output) -> None:
    """Sample points uniformly from the coordinate box of a gauge ball (CSV)."""
    if count < 1:
        raise click.UsageError("--count must be >= 1")
    if radius <= 0.0:
        raise click.UsageError("--radius must be positive")
    alg = _load_algebra(selector)
    v, z = hgroup.sample_arrays(alg, count, radius, seed)
    if output:
        hgroup.save_points_csv(output, alg, v, z)
    else:
        import io
        buffer = io.StringIO()
        hgroup.save_points_csv(buffer, alg, v, z)
        click.echo(buffer.getvalue(), nl=False)


@group.command("distmat")
@click.option("--algebra", "selector", required=True)
@click.option("--count", type=int, required=True)
@click.option("--radius", type=float, default=1.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def group_distmat(selector, count, radius, seed, fmt, output) -> None:
    """Gauge distance matrix of a seeded point sample."""
    if count < 2:
        raise click.UsageError("--count must be >= 2")
    if radius <= 0.0:
        raise click.UsageError("--radius must be positive")
    alg = _load_algebra(selector)
    v, z = hgroup.sample_arrays(alg, count, radius, seed)
    space = finite_metric.from_group_arrays(alg, v, z)
    _write_space(space, fmt, output)


def _write_space(space, fmt: str, output: str | None) -> None:
    save = finite_metric.save_space_csv if fmt == "csv" else finite_metric.save_space_json
    if output:
        save(space, output)
        return
    import io
    buffer = io.StringIO()
    save(space, buffer)
    click.echo(buffer.getvalue(), nl=False)


def _read_space(path: str) -> finite_metric.FiniteMetricSpace:
    if str(path).endswith(".json"):
        return finite_metric.load_space_json(path)
    return finite_metric.load_space_csv(path)


# ---------------------------------------------------------------------------
# invert


@main.group()
def invert() -> None:
    """The gauge inversion and its two-point transport maps."""


@invert.command("verify")
@click.option("--algebra", "selector", required=True)
@click.option("--samples", type=int, default=100000, show_default=True)
@click.option("--tolerance", type=float, default=1e-9, show_default=True)
@click.option("--radius", type=float, default=1.0, show_default=True)
@click.option("--threads", type=int, default=1, show_default=True,
              help="Worker threads for the pair sweep (result is thread-count invariant).")
@click.option("--expect", type=click.Choice(["exact", "inexact"]), default=None)
@_common
def invert_verify(selector, samples, tolerance, radius, threads, expect, seed,
                  output, no_timestamp) -> None:
    """Worst-case deviation of the inversion distance identity."""
    if threads < 1:
        raise click.UsageError("--threads must be >= 1")
    alg = _load_algebra(selector)
    report = inversion.verify_inversion(alg, samples=samples, seed=seed, tol=tolerance,
                                        radius=radius, threads=threads)
    _emit({"command": "invert verify", **report.to_dict()}, output, no_timestamp)
    if expect == "exact" and not report.is_exact_inversion:
        raise MathCheckFailed(f"{alg.label}: max |r - 1| = "
                              f"{report.max_relative_deviation:.3e} exceeds tolerance")
    if expect == "inexact" and report.is_exact_inversion:
        raise MathCheckFailed(f"{alg.label}: inversion identity unexpectedly exact")


@invert.command("transport")
@click.option("--algebra", "selector", required=True)
@click.option("--trials", type=int, default=1000, show_default=True,
              help="Random quadruples per case branch.")
@click.option("--tolerance", type=float, default=1e-9, show_default=True)
@click.option("--radius", type=float, default=1.0, show_default=True)
@_common
def invert_transport(selector, trials, tolerance, radius, seed, output, no_timestamp) -> None:
    """Exercise all transporter case branches on random quadruples."""
    if trials < 1:
        raise click.UsageError("--trials must be >= 1")
    alg = _load_algebra(selector)
    rng = np.random.default_rng(seed)
    branches = {"finite": 0.0, "x_infinite": 0.0, "x_prime_infinite": 0.0, "x_equals_y": 0.0}

    def draw():
        v, z = hgroup.sample_with_rng(alg, 1, radius, rng)
        return hgroup.point(alg, v[0], z[0])

    for _ in range(trials):
        x, xp, y, yp = draw(), draw(), draw(), draw()
        g = inversion.pair_transporter(x, xp, y, yp)
        branches["finite"] = max(branches["finite"],
                                 hgroup.gauge_dist(g(x), xp), hgroup.gauge_dist(g(y), yp))
        g = inversion.pair_transporter(hgroup.INFINITY, xp, y, yp)
        branches["x_infinite"] = max(branches["x_infinite"],
                                     hgroup.gauge_dist(g(hgroup.INFINITY), xp),
                                     hgroup.gauge_dist(g(y), yp))
        g = inversion.pair_transporter(x, hgroup.INFINITY, y, yp)
        image = g(x)
        if not isinstance(image, hgroup.PointAtInfinity):
            branches["x_prime_infinite"] = float("inf")
        branches["x_prime_infinite"] = max(branches["x_prime_infinite"],
                                           hgroup.gauge_dist(g(y), yp))
        g = inversion.pair_transporter(x, xp, x, xp)
        branches["x_equals_y"] = max(branches["x_equals_y"], hgroup.gauge_dist(g(x), xp))

    worst = max(branches.values())
    _emit({"command": "invert transport", "algebra": alg.label,
           "fingerprint": alg.fingerprint, "trials": trials, "seed": seed,
           "tolerance": tolerance, "max_gauge_error": worst,
           "per_branch": branches, "passed": worst <= tolerance},
          output, no_timestamp)
    if worst > tolerance:
        raise MathCheckFailed(f"transporter gauge error {worst:.3e} exceeds {tolerance}")


# ---------------------------------------------------------------------------
# metric


@main.group()
def metric() -> None:
    """Inversion and sphericalization of finite metric spaces."""


def _based_space(path: str, base: str | None) -> finite_metric.BasedSpace:
    space = _read_space(path)
    if base is None:
        index = 0
    else:
        try:
            index = space.label_index(base)
        except ValueError:
            if base.isdigit() and int(base) < space.n:
                index = int(base)
            else:
                raise
    return finite_metric.BasedSpace(space, index)


@metric.command("invert")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--base", default=None, help="Base point label (default: first label).")
@click.option("--quasimetric", is_flag=True, default=False,
              help="Emit the raw quasimetric instead of its chain metric.")
@click.option("--max-points", type=int, default=finite_metric.DEFAULT_MAX_POINTS,
              show_default=True,
              help="Largest input point count for the dense shortest-path closure.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def metric_invert(input_path, base, quasimetric, max_points, fmt, output) -> None:
    """Based inversion of a distance-matrix file."""
    based = _based_space(input_path, base)
    if quasimetric:
        space = finite_metric.FiniteMetricSpace(finite_metric.inversion_labels(based),
                                                finite_metric.inversion_quasimetric(based),
                                                contains_infinity=True, validate=False)
    else:
        space = finite_metric.invert_space(based, max_points=max_points)
    _write_space(space, fmt, output)


@metric.command("sphericalize")
@click.option("--input", "input_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--base", default=None, help="Base point label (default: first label).")
@click.option("--quasimetric", is_flag=True, default=False,
              help="Emit the raw quasimetric instead of its chain metric.")
@click.option("--max-points", type=int, default=finite_metric.DEFAULT_MAX_POINTS,
              show_default=True,
              help="Largest input point count for the dense shortest-path closure.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None)
def metric_sphericalize(input_path, base, quasimetric, max_points, fmt, output) -> None:
    """Based sphericalization of a distance-matrix file."""
    based = _based_space(input_path, base)
    if quasimetric:
        space = finite_metric.FiniteMetricSpace(finite_metric.sphericalization_labels(based),
                                                finite_metric.sphericalization_quasimetric(based),
                                                contains_infinity=True, validate=False)
    else:
        space = finite_metric.sphericalize_space(based, max_points=max_points)
    _write_space(space, fmt, output)


# ---------------------------------------------------------------------------
# distort


@main.group()
def distort() -> None:
    """Distortion statistics: quasimobius, quasiconformality, regularity."""


@distort.command("qm")
@click.option("--domain", "domain_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Distance matrix of the source metric.")
@click.option("--image", "image_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Distance matrix of the target metric (aligned by labels).")
@click.option("--samples", type=int, default=100000, show_default=True)
@click.option("--raw-pairs", type=click.Path(dir_okay=False), default=None,
              help="Optional CSV of raw (t_in, t_out) cross-ratio pairs.")
@_common
def distort_qm(domain_path, image_path, samples, raw_pairs, seed, output, no_timestamp) -> None:
    """Strong-quasimobius constant of the identity map between two metrics."""
    domain = _read_space(domain_path)
    image = _read_space(image_path)
    common = [label for label in domain.labels if label in set(image.labels)]
    if len(common) < 4:
        raise ValueError("the two spaces share fewer than four labels")
    d_idx = [domain.label_index(t) for t in common]
    i_idx = [image.label_index(t) for t in common]
    d_in = domain.dist[np.ix_(d_idx, d_idx)]
    d_out = image.dist[np.ix_(i_idx, i_idx)]
    report = distortion.estimate_quasimobius(d_in, d_out, samples=samples, seed=seed)
    if raw_pairs:
        distortion.save_ratio_pairs_csv(report, raw_pairs)
    payload = report.to_dict()
    payload["command"] = "distort qm"
    payload["points_used"] = len(common)
    _emit(payload, output, no_timestamp)


@distort.command("qc")
@click.option("--algebra", "selector", required=True)
@click.option("--map", "map_name", default="inversion", show_default=True,
              help="identity, inversion, or dilate:T.")
@click.option("--center-gauge", type=float, default=1.0, show_default=True,
              help="The seeded random center is dilated to this gauge.")
@click.option("--radii", default="0.1,0.01,0.001", show_default=True,
              help="Comma-separated decreasing radii.")
@click.option("--samples", type=int, default=20000, show_default=True)
@_common
def distort_qc(selector, map_name, center_gauge, radii, samples, seed,
               output, no_timestamp) -> None:
    """Metric quasiconformality ratios of a self-map at shrinking radii."""
    alg = _load_algebra(selector)
    try:
        radius_list = [float(t) for t in radii.split(",") if t.strip()]
    except ValueError:
        raise click.UsageError(f"--radii must be comma-separated floats, got {radii!r}")
    if map_name == "identity":
        point_map = distortion.identity_map(alg)
    elif map_name == "inversion":
        point_map = distortion.inversion_map(alg)
    elif map_name.startswith("dilate:"):
        point_map = distortion.dilation_map(alg, float(map_name.split(":", 1)[1]))
    else:
        raise click.UsageError(f"unknown map {map_name!r} (identity, inversion, dilate:T)")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    v, z = hgroup.sample_with_rng(alg, 1, 1.0, rng)
    center = hgroup.point(alg, v[0], z[0])
    g = hgroup.gauge(center)
    if g == 0.0:
        raise ValueError("degenerate random center")
    center = hgroup.dilate(center_gauge / g, center)
    report = distortion.estimate_qc_ratio(alg, point_map, center, radius_list,
                                          samples=samples, seed=seed)
    payload = report.to_dict()
    payload["command"] = "distort qc"
    payload["map"] = map_name
    _emit(payload, output, no_timestamp)


@distort.command("regularity")
@click.option("--algebra", "selector", required=True)
@click.option("--radii", default="0.1,0.2154,0.4642,1.0,2.154,4.642,10.0", show_default=True,
              help="Comma-separated radii spanning at least a decade.")
@click.option("--samples", type=int, default=200000, show_default=True,
              help="Monte-Carlo points per radius.")
@_common
def distort_regularity(selector, radii, samples, seed, output, no_timestamp) -> None:
    """Fit the volume-growth exponent of gauge balls."""
    alg = _load_algebra(selector)
    try:
        radius_list = [float(t) for t in radii.split(",") if t.strip()]
    except ValueError:
        raise click.UsageError(f"--radii must be comma-separated floats, got {radii!r}")
    report = distortion.estimate_regularity(alg, radius_list, samples=samples, seed=seed)
    payload = report.to_dict()
    payload["command"] = "distort regularity"
    _emit(payload, output, no_timestamp)


# ---------------------------------------------------------------------------
# entry points


def run(argv=None) -> int:
    """Run the CLI; returns the exit code instead of raising SystemExit."""
    try:
        main.main(args=argv, prog_name="heislab", standalone_mode=False)
    except MathCheckFailed as exc:
        click.echo(f"check failed: {exc}", err=True)
        return 2
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except (ValueError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


def entrypoint() -> None:
    sys.exit(run())


if __name__ == "__main__":
    entrypoint()
