"""Command-line front end: build algebras, run checkers, sample groups,
invert finite metrics, and emit replayable JSON reports.

Exit codes: 0 when the requested computation ran (regardless of the
mathematical outcome, which lives in the report), 2 when an ``--expect``
option or a built-in guarantee was violated, and 1 for usage or I/O errors.
Every report embeds the seed and sample count, and a report on an algebra
the fingerprint of its structure constants, so runs can be replayed
exactly; with ``--no-timestamp`` the emitted bytes are a pure function of
argv and input files.
"""

from __future__ import annotations

import io
import os
import sys
from datetime import datetime, timezone

import click

from heislab import algebra as alg_mod
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


def _emit(command: str, report, output: str | None, no_timestamp: bool, **extra) -> None:
    """Write a library report as the command's JSON, with the keys the CLI owns."""
    payload = {"command": command, **report.to_dict(), **extra}
    if not no_timestamp:
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    text = canonical_json(payload)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _expect(expect: str | None, positive: str, holds: bool, failed: str,
            unexpected: str) -> None:
    """Raise MathCheckFailed with ``failed`` (``--expect`` ``positive``) or
    ``unexpected`` (the other choice) unless ``expect`` matches ``holds``."""
    if expect is not None and (expect == positive) != holds:
        raise MathCheckFailed(failed if expect == positive else unexpected)


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
    kinds = list(alg_mod.AlgebraKind) if kind == "all" else [alg_mod.AlgebraKind(kind)]
    report = alg_mod.check_arithmetic(kinds, samples, seed=seed, tol=tolerance)
    _emit("algebra check", report, output, no_timestamp)
    if not report.passed:
        raise MathCheckFailed("an algebra arithmetic check exceeded its tolerance")


# ---------------------------------------------------------------------------
# lie


@main.group()
def lie() -> None:
    """Structure checks of step-two algebras."""


# looked up per call, so that a tracer rebinding module-level tables sees the calls
_LIE_CHECKS = {"check-htype": hlie.check_h_type, "check-j2": hlie.check_j2}


def _register_lie_check(name: str, verdict: str, choices: tuple[str, str], noun: str,
                        unexpected: str, algebra_help: str, doc: str) -> None:
    @lie.command(name, help=doc)
    @click.option("--algebra", "selector", required=True, help=algebra_help)
    @click.option("--samples", type=int, default=10000, show_default=True,
                  help="Recorded in the report for replay only; the certificate is exact.")
    @click.option("--tolerance", type=float, default=hlie.DEFAULT_TOL, show_default=True)
    @click.option("--expect", type=click.Choice(choices), default=None,
                  help="Fail (exit 2) unless the verdict matches.")
    @_common
    def command(selector, samples, tolerance, expect, seed, output, no_timestamp) -> None:
        alg = _load_algebra(selector)
        report = _LIE_CHECKS[name](alg, samples=samples, tol=tolerance, seed=seed)
        _emit(f"lie {name}", report, output, no_timestamp)
        _expect(expect, choices[0], getattr(report, verdict),
                f"{alg.label} failed the {noun} check (residual {report.max_residual:.3e})",
                f"{alg.label} unexpectedly {unexpected}")


_register_lie_check(
    "check-htype", "is_h_type", ("htype", "not-htype"), "Heisenberg-type",
    "passed the Heisenberg-type check",
    "Builtin name (H_R:n, H_C:n, H_H:n, H_O, truncated_HH, degenerate_sum) "
    "or algebra-spec JSON path.",
    """Certify or refute |J_Z X| = |Z||X|, exactly.

    The certificate is the Clifford relations over the center basis.
    --samples and --seed are recorded in the report for replay only; they
    change no verdict, residual or witness.
    """)
_register_lie_check(
    "check-j2", "satisfies_j2", ("j2", "not-j2"), "J^2", "satisfies the J^2-condition",
    "Builtin name or algebra-spec JSON path.",
    """Certify or refute the J^2-condition, exactly (requires a Heisenberg-type algebra).

    The certificate is the coefficients of one cubic per pair of center
    basis vectors.  --samples and --seed are recorded in the report for
    replay only; they change no verdict, residual or witness.
    """)


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
    alg = _load_algebra(selector)
    v, z = hgroup.sample_arrays(alg, count, radius, seed)
    _save(lambda out: hgroup.save_points_csv(out, alg, v, z), output)


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
    alg = _load_algebra(selector)
    v, z = hgroup.sample_arrays(alg, count, radius, seed)
    space = finite_metric.from_group_arrays(alg, v, z)
    _write_space(space, fmt, output)


def _save(write, output: str | None) -> None:
    """Write to the output path, or through a buffer to stdout."""
    if output:
        write(output)
        return
    buffer = io.StringIO()
    write(buffer)
    click.echo(buffer.getvalue(), nl=False)


def _write_space(space, fmt: str, output: str | None) -> None:
    save = finite_metric.save_space_csv if fmt == "csv" else finite_metric.save_space_json
    _save(lambda out: save(space, out), output)


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
@click.option("--tolerance", type=float, default=hlie.DEFAULT_TOL, show_default=True)
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
    _emit("invert verify", report, output, no_timestamp)
    _expect(expect, "exact", report.is_exact_inversion,
            f"{alg.label}: max |r - 1| = {report.max_relative_deviation:.3e} exceeds tolerance",
            f"{alg.label}: inversion identity unexpectedly exact")


@invert.command("transport")
@click.option("--algebra", "selector", required=True)
@click.option("--trials", type=int, default=1000, show_default=True,
              help="Random quadruples per case branch.")
@click.option("--tolerance", type=float, default=hlie.DEFAULT_TOL, show_default=True)
@click.option("--radius", type=float, default=1.0, show_default=True)
@_common
def invert_transport(selector, trials, tolerance, radius, seed, output, no_timestamp) -> None:
    """Exercise all transporter case branches on random quadruples and free points."""
    if trials < 1:
        raise click.UsageError("--trials must be >= 1")
    alg = _load_algebra(selector)
    report = inversion.transport_errors(alg, trials, radius=radius, seed=seed, tol=tolerance)
    _emit("invert transport", report, output, no_timestamp)
    if not report.passed:
        failed = " and ".join(f"{name} {value:.3e}" for name, value in (
            ("gauge error", report.max_gauge_error),
            ("cross-ratio deviation", report.max_cross_ratio_deviation))
            if not value <= tolerance)
        raise MathCheckFailed(f"transporter {failed} above tolerance {tolerance}")


# ---------------------------------------------------------------------------
# metric


@main.group()
def metric() -> None:
    """Inversion and sphericalization of finite metric spaces."""


def _base_index(space: finite_metric.FiniteMetricSpace, base: str | None) -> int:
    """The index of the point labeled ``base``, else of the point numbered ``base``."""
    if base is None:
        return 0
    try:
        return space.label_index(base)
    except ValueError:
        if base.isdecimal() and int(base) < space.n:
            return int(base)
        raise


# looked up per call, so that a tracer rebinding module-level tables sees the calls
_SPACE_MAPS = {"invert": finite_metric.invert_space,
               "sphericalize": finite_metric.sphericalize_space}


def _register_metric_map(name: str, noun: str) -> None:
    @metric.command(name, help=f"Based {noun} of a distance-matrix file.")
    @click.option("--input", "input_path", required=True,
                  type=click.Path(exists=True, dir_okay=False))
    @click.option("--base", default=None,
                  help="Base point: a label, else a point index (default: the first point).")
    @click.option("--quasimetric", is_flag=True, default=False,
                  help="Emit the raw quasimetric instead of its chain metric.")
    @click.option("--max-points", type=int, default=finite_metric.DEFAULT_MAX_POINTS,
                  show_default=True,
                  help="Largest input point count for the dense shortest-path closure.")
    @click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
                  show_default=True)
    @click.option("--output", type=click.Path(dir_okay=False), default=None)
    def command(input_path, base, quasimetric, max_points, fmt, output) -> None:
        space = _read_space(input_path)
        space = _SPACE_MAPS[name](space, _base_index(space, base), max_points=max_points,
                                  chain=not quasimetric)
        _write_space(space, fmt, output)


_register_metric_map("invert", "inversion")
_register_metric_map("sphericalize", "sphericalization")


# ---------------------------------------------------------------------------
# distort


@main.group()
def distort() -> None:
    """Distortion statistics: quasimobius, quasiconformality, regularity."""


def _radius_list(radii: str) -> list[float]:
    try:
        return [float(t) for t in radii.split(",") if t.strip()]
    except ValueError:
        raise click.UsageError(f"--radii must be comma-separated floats, got {radii!r}") from None


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
    d_in, d_out = finite_metric.shared_submatrices(_read_space(domain_path),
                                                   _read_space(image_path))
    if len(d_in) < 4:
        raise ValueError("the two spaces share fewer than four labels")
    report = distortion.estimate_quasimobius(d_in, d_out, samples=samples, seed=seed)
    if raw_pairs:
        distortion.save_ratio_pairs_csv(report, raw_pairs)
    _emit("distort qm", report, output, no_timestamp, points_used=len(d_in))


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
    radius_list = _radius_list(radii)
    if map_name == "identity":
        point_map = distortion.identity_map(alg)
    elif map_name == "inversion":
        point_map = distortion.inversion_map(alg)
    elif map_name.startswith("dilate:"):
        try:
            factor = float(map_name.split(":", 1)[1])
        except ValueError:
            raise click.UsageError(f"--map dilate:T needs a number T, got {map_name!r}") from None
        point_map = distortion.dilation_map(alg, factor)
    else:
        raise click.UsageError(f"unknown map {map_name!r} (identity, inversion, dilate:T)")
    center = distortion.random_center(alg, center_gauge, seed=seed)
    report = distortion.estimate_qc_ratio(alg, point_map, center, radius_list,
                                          samples=samples, seed=seed)
    _emit("distort qc", report, output, no_timestamp, map=map_name)


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
    report = distortion.estimate_regularity(alg, _radius_list(radii), samples=samples, seed=seed)
    _emit("distort regularity", report, output, no_timestamp)


# ---------------------------------------------------------------------------
# entry points


def run(argv=None) -> int:
    """Run the CLI; returns the exit code instead of raising SystemExit."""
    try:
        main.main(args=argv, prog_name="heislab", standalone_mode=False)
    except MathCheckFailed as exc:
        click.echo(f"check failed: {exc}", err=True)
        return 2
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
