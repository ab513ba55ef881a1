"""Command-line front end: build algebras, run checkers, sample groups,
invert finite metrics, and emit replayable JSON reports.

Exit codes: 0 when the requested computation ran (regardless of the
mathematical outcome, which lives in the report), 2 when an ``--expect``
option or a built-in guarantee was violated, and 1 for usage or I/O errors.
Every report embeds the seed and sample count, and a report on an algebra
the fingerprint of its structure constants, so runs can be replayed
exactly; with ``--no-timestamp`` the emitted bytes are a pure function of
argv and input files.

The arguments are parsed by one ``argparse`` tree; each command is a
function of the parsed namespace, found as its ``run`` default.  Only
``hlie`` (with ``algebra`` and ``util``) is imported here; each command
function imports the other library modules it calls and looks their
functions up on the module at call time, so a command pays only for the
modules it runs.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import gc
import os
import sys

from heislab import algebra as alg_mod
from heislab import hlie
from heislab.util import _write_text, canonical_json

__all__ = ["run", "entrypoint", "MathCheckFailed"]


class MathCheckFailed(Exception):
    """A mathematical expectation stated on the command line was violated."""


def _load_algebra(selector: str) -> hlie.HTypeAlgebra:
    """A spec file for a path (a ``.json`` name or one with a separator), else a
    builtin, else a spec file of that name: no file in the working directory
    shadows a builtin name."""
    if selector.endswith(".json") or os.path.sep in selector:
        if not os.path.exists(selector):
            raise ValueError(f"algebra spec file not found: {selector}")
        return hlie.load_algebra_spec(selector)
    try:
        return hlie.algebra_from_name(selector)
    except ValueError:
        if not os.path.exists(selector):
            raise
    return hlie.load_algebra_spec(selector)


def _emit(args, report, **extra) -> None:
    """Write a library report as the command's JSON, with the keys the CLI
    owns, to ``--output`` or stdout."""
    payload = {"command": f"{args.group} {args.command}", **report.to_dict(), **extra}
    if not args.no_timestamp:
        from datetime import datetime, timezone
        payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    text = canonical_json(payload)
    _write_text(args.output or sys.stdout, lambda fh: fh.write(text))


def _expect(expect: str | None, positive: str, holds: bool, failed: str,
            unexpected: str) -> None:
    """Raise MathCheckFailed with ``failed`` (``--expect`` ``positive``) or
    ``unexpected`` (the other choice) unless ``expect`` matches ``holds``."""
    if expect is not None and (expect == positive) != holds:
        raise MathCheckFailed(failed if expect == positive else unexpected)


# ---------------------------------------------------------------------------
# commands


def _algebra_check(args) -> None:
    kinds = list(alg_mod.AlgebraKind) if args.kind == "all" else [alg_mod.AlgebraKind(args.kind)]
    report = alg_mod.check_arithmetic(kinds, args.samples, seed=args.seed, tol=args.tolerance)
    _emit(args, report)
    if not report.passed:
        raise MathCheckFailed("an algebra arithmetic check exceeded its tolerance")


# each lie command: its hlie check, the report's verdict field, the --expect
# choices (the verdict's first), the check's name in a failure, and what a
# verdict that --expect denies is said to have done
_LIE_CHECKS = {
    "check-htype": ("check_h_type", "is_h_type", ("htype", "not-htype"), "Heisenberg-type",
                    "passed the Heisenberg-type check"),
    "check-j2": ("check_j2", "satisfies_j2", ("j2", "not-j2"), "J^2",
                 "satisfies the J^2-condition"),
}


def _lie_check(args) -> None:
    check, verdict, choices, noun, unexpected = _LIE_CHECKS[args.command]
    alg = _load_algebra(args.algebra)
    report = getattr(hlie, check)(alg, samples=args.samples, tol=args.tolerance, seed=args.seed)
    _emit(args, report)
    _expect(args.expect, choices[0], getattr(report, verdict),
            f"{alg.label} failed the {noun} check (residual {report.max_residual:.3e})",
            f"{alg.label} unexpectedly {unexpected}")


def _group_sample(args) -> None:
    from heislab import hgroup
    alg = _load_algebra(args.algebra)
    v, z = hgroup.sample_arrays(alg, args.count, args.radius, args.seed)
    hgroup.save_points_csv(args.output or sys.stdout, alg, v, z)


def _group_distmat(args) -> None:
    if args.count < 2:
        raise ValueError("--count must be >= 2")
    from heislab import finite_metric, hgroup
    alg = _load_algebra(args.algebra)
    v, z = hgroup.sample_arrays(alg, args.count, args.radius, args.seed)
    space = finite_metric.from_group_arrays(alg, v, z)
    finite_metric.save_space_csv(space, args.output or sys.stdout)


def _invert_verify(args) -> None:
    from heislab import inversion
    alg = _load_algebra(args.algebra)
    report = inversion.verify_inversion(alg, samples=args.samples, seed=args.seed,
                                        tol=args.tolerance, radius=args.radius,
                                        threads=args.threads)
    _emit(args, report)
    _expect(args.expect, "exact", report.is_exact_inversion,
            f"{alg.label}: max |r - 1| = {report.max_relative_deviation:.3e} exceeds tolerance",
            f"{alg.label}: inversion identity unexpectedly exact")


def _invert_transport(args) -> None:
    from heislab import inversion
    alg = _load_algebra(args.algebra)
    report = inversion.transport_errors(alg, args.trials, radius=args.radius, seed=args.seed,
                                        tol=args.tolerance)
    _emit(args, report)
    if not report.passed:
        failed = " and ".join(f"{name} {value:.3e}" for name, value in (
            ("gauge error", report.max_gauge_error),
            ("cross-ratio deviation", report.max_cross_ratio_deviation))
            if not value <= args.tolerance)
        raise MathCheckFailed(f"transporter {failed} above tolerance {args.tolerance}")


def _base_index(space, base: str | None) -> int:
    """The index of the point labeled ``base``, else of the point numbered ``base``."""
    if base is None:
        return 0
    try:
        return space.label_index(base)
    except ValueError:
        if base.isdecimal() and int(base) < space.n:
            return int(base)
        raise


def _metric_map(args) -> None:
    """``metric invert`` or ``metric sphericalize``: the finite_metric map of that name."""
    from heislab import finite_metric
    space = finite_metric.load_space_csv(args.input)
    space = getattr(finite_metric, f"{args.command}_space")(space, _base_index(space, args.base))
    finite_metric.save_space_csv(space, args.output or sys.stdout)


def _radius_list(radii: str) -> list[float]:
    try:
        return [float(t) for t in radii.split(",") if t.strip()]
    except ValueError:
        raise ValueError(f"--radii must be comma-separated floats, got {radii!r}") from None


def _distort_qm(args) -> None:
    from heislab import distortion, finite_metric
    d_in, d_out = finite_metric.shared_submatrices(finite_metric.load_space_csv(args.domain),
                                                   finite_metric.load_space_csv(args.image))
    if len(d_in) < 4:
        raise ValueError("the two spaces share fewer than four labels")
    report = distortion.estimate_quasimobius(d_in, d_out, samples=args.samples, seed=args.seed,
                                             raw_pairs=bool(args.raw_pairs))
    if args.raw_pairs:
        distortion.save_ratio_pairs_csv(report, args.raw_pairs)
    _emit(args, report, points_used=len(d_in))


def _distort_qc(args) -> None:
    from heislab import distortion, hgroup
    alg = _load_algebra(args.algebra)
    radius_list = _radius_list(args.radii)
    map_name = args.map
    if map_name == "identity":
        point_map = lambda v, z: (v, z)
    elif map_name == "inversion":
        from heislab import inversion
        point_map = functools.partial(inversion.sigma_arrays, alg)
    elif map_name.startswith("dilate:"):
        try:
            factor = float(map_name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"--map dilate:T needs a number T, got {map_name!r}") from None
        point_map = functools.partial(hgroup.dilate_arrays, factor)
    else:
        raise ValueError(f"unknown map {map_name!r} (identity, inversion, dilate:T)")
    center = distortion.random_center(alg, args.center_gauge, seed=args.seed)
    if map_name.startswith("dilate:") and 0.0 < factor < float("inf"):
        for r in (args.center_gauge, *radius_list):  # past this range t^2 z under- or overflows
            hgroup._check_radius(factor * r, "dilated center gauge or radius")
    report = distortion.estimate_qc_ratio(alg, point_map, center, radius_list,
                                          samples=args.samples, seed=args.seed)
    _emit(args, report, map=map_name)


def _distort_regularity(args) -> None:
    from heislab import distortion
    alg = _load_algebra(args.algebra)
    report = distortion.estimate_regularity(alg, _radius_list(args.radii),
                                            samples=args.samples, seed=args.seed)
    _emit(args, report)


# ---------------------------------------------------------------------------
# the parser


class _Parser(argparse.ArgumentParser):
    """The parser of the root and of every subcommand.  It takes no abbreviated
    long option, and it raises a usage error as ValueError, which :func:`run`
    reports in one ``error:`` line with exit code 1: argparse itself would
    print the usage and exit with 2, the code of a failed ``--expect``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ValueError(message)


_DEFAULT = "(default: %(default)s)"
_TOLERANCE = "largest residual that passes, 0 <= TOLERANCE < inf (default: %(default)s)"


def _report_options(parser) -> None:
    """The options of every command that writes a JSON report."""
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the random stream (default: %(default)s)")
    parser.add_argument("--output", help="report path (default: stdout)")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp, so the report bytes are reproducible")


def _parser() -> _Parser:
    root = _Parser(prog="heislab", description="Numerical laboratory for H-type groups and "
                                               "their gauge inversions.")
    groups = root.add_subparsers(dest="group", required=True)
    ALGEBRA = f"builtin name ({', '.join(hlie.BUILTIN_NAMES)}) or algebra-spec JSON path"

    def group(name: str, doc: str):
        parser = groups.add_parser(name, help=doc, description=doc)
        return parser.add_subparsers(dest="command", required=True)

    def command(commands, name: str, function, doc: str, algebra: str | None = ALGEBRA):
        parser = commands.add_parser(name, help=doc, description=doc)
        parser.set_defaults(run=function)
        if algebra:
            parser.add_argument("--algebra", required=True, help=algebra)
        return parser

    cmds = group("algebra", "Division-algebra arithmetic checks.")
    p = command(cmds, "check", _algebra_check, "Composition law, associativity and "
                "alternativity over random samples.", algebra=None)
    p.add_argument("--kind", choices=["real", "complex", "quaternion", "octonion", "all"],
                   default="all", help=_DEFAULT)
    p.add_argument("--samples", type=int, default=100000, help=_DEFAULT)
    p.add_argument("--tolerance", type=float, default=1e-12, help=_TOLERANCE)
    _report_options(p)

    cmds = group("lie", "Structure checks of step-two algebras.")
    for name, doc in (
            ("check-htype", "Certify or refute |J_Z X| = |Z||X|, exactly, by the Clifford "
                            "relations over the center basis."),
            ("check-j2", "Certify or refute the J^2-condition, exactly, by the coefficients "
                         "of one cubic per pair of center basis vectors (requires a "
                         "Heisenberg-type algebra).")):
        p = command(cmds, name, _lie_check, doc)
        p.add_argument("--samples", type=int, default=10000,
                       help="recorded in the report for replay only, as is --seed: the "
                            "certificate is exact (default: %(default)s)")
        p.add_argument("--tolerance", type=float, default=hlie.DEFAULT_TOL, help=_TOLERANCE)
        p.add_argument("--expect", choices=_LIE_CHECKS[name][2],
                       help="fail (exit 2) unless the verdict matches")
        _report_options(p)

    cmds = group("group", "Point sampling and distance matrices in exponential coordinates.")
    for name, run_command, doc in (
            ("sample", _group_sample, "Sample points uniformly from the coordinate box of a "
                                      "gauge ball (CSV)."),
            ("distmat", _group_distmat, "Gauge distance matrix of a seeded point sample (CSV).")):
        p = command(cmds, name, run_command, doc)
        p.add_argument("--count", type=int, required=True, help="number of points")
        p.add_argument("--radius", type=float, default=1.0, help=_DEFAULT)
        p.add_argument("--seed", type=int, default=0, help=_DEFAULT)
        p.add_argument("--output", help="CSV path (default: stdout)")

    cmds = group("invert", "The gauge inversion and its two-point transport maps.")
    p = command(cmds, "verify", _invert_verify,
                "Worst-case deviation of the inversion distance identity.")
    p.add_argument("--samples", type=int, default=100000, help=_DEFAULT)
    p.add_argument("--tolerance", type=float, default=hlie.DEFAULT_TOL, help=_TOLERANCE)
    p.add_argument("--radius", type=float, default=1.0, help=_DEFAULT)
    p.add_argument("--threads", type=int,
                   help="workers of the pair sweep, forked processes where the platform "
                        "has fork (default: the CPUs this process may use; the result does "
                        "not depend on the count)")
    p.add_argument("--expect", choices=["exact", "inexact"],
                   help="fail (exit 2) unless the verdict matches")
    _report_options(p)
    p = command(cmds, "transport", _invert_transport, "Exercise every transporter case "
                "branch on random quadruples and free points.")
    p.add_argument("--trials", type=int, default=1000,
                   help="random quadruples per case branch (default: %(default)s)")
    p.add_argument("--tolerance", type=float, default=hlie.DEFAULT_TOL, help=_TOLERANCE)
    p.add_argument("--radius", type=float, default=1.0, help=_DEFAULT)
    _report_options(p)

    cmds = group("metric", "Inversion and sphericalization of finite metric spaces.")
    for name, noun in (("invert", "inversion"), ("sphericalize", "sphericalization")):
        p = command(cmds, name, _metric_map, f"Based {noun} of a distance-matrix CSV.",
                    algebra=None)
        p.add_argument("--input", required=True, help="distance-matrix CSV")
        p.add_argument("--base", help="base point: a label, else a point index (default: the "
                                      "first point); a value that begins with '-' is given "
                                      "as --base=VALUE")
        p.add_argument("--output", help="CSV path (default: stdout)")

    cmds = group("distort", "Distortion statistics: quasimobius, quasiconformality, "
                            "regularity.")
    p = command(cmds, "qm", _distort_qm, "Strong-quasimobius constant of the identity map "
                "between two metrics.", algebra=None)
    p.add_argument("--domain", required=True, help="distance-matrix CSV of the source metric")
    p.add_argument("--image", required=True,
                   help="distance-matrix CSV of the target metric (aligned by labels)")
    p.add_argument("--samples", type=int, default=100000, help=_DEFAULT)
    p.add_argument("--raw-pairs", help="CSV path of the raw (t_in, t_out) cross-ratio pairs")
    _report_options(p)
    p = command(cmds, "qc", _distort_qc,
                "Metric quasiconformality ratios of a self-map at shrinking radii.")
    p.add_argument("--map", default="inversion",
                   help="identity, inversion, or dilate:T (default: %(default)s)")
    p.add_argument("--center-gauge", type=float, default=1.0,
                   help="gauge of the seeded random center (default: %(default)s)")
    p.add_argument("--radii", default="0.1,0.01,0.001",
                   help="comma-separated decreasing radii (default: %(default)s)")
    p.add_argument("--samples", type=int, default=20000, help=_DEFAULT)
    _report_options(p)
    p = command(cmds, "regularity", _distort_regularity,
                "Fit the volume-growth exponent of gauge balls.")
    p.add_argument("--radii", default="0.1,0.2154,0.4642,1.0,2.154,4.642,10.0",
                   help="comma-separated radii spanning at least a decade (default: "
                        "%(default)s)")
    p.add_argument("--samples", type=int, default=200000,
                   help="Monte-Carlo points per radius (default: %(default)s)")
    _report_options(p)
    return root


# ---------------------------------------------------------------------------
# entry points


def run(argv=None) -> int:
    """Run the CLI on a kept heap (:func:`_keep_heap`); returns the exit code
    instead of raising SystemExit.  Library callers leave malloc as it is."""
    _keep_heap()
    try:
        args = _parser().parse_args(argv)
        args.run(args)
    except SystemExit:  # the only exit argparse is left: --help, once printed
        return 0
    except MathCheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _keep_heap() -> None:
    """Pin glibc's heap thresholds for this process; a no-op without
    ``mallopt``.

    By default glibc raises its mmap threshold to the largest mmapped block
    freed so far and gives the heap top back to the kernel once it exceeds
    twice that, so the temporaries of every ``invert verify`` chunk are
    mapped, or faulted in, again.  A fixed 2 MiB mmap threshold keeps a
    chunk's temporaries (at most 1.5 MiB up to 12 coordinates) on the heap
    and still maps the 4 MB arrays of the metric commands; a 64 MiB trim
    threshold keeps a chunk's live set between chunks.  A forked worker
    inherits both.  On 2 vCPUs, ``invert verify`` of H_O at 10**6 pairs on
    2 workers took 1.01 s of CPU and 15k minor faults pinned, and 1.16 s
    and 96k unpinned.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no process handle
        return
    mallopt(-3, 2 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def entrypoint() -> None:
    """The console script: :func:`run` on ``sys.argv``, after ``gc.freeze()``.

    The freeze moves the objects of the imports (about 200k) out of every
    later collection, the full ones at interpreter exit included.  It is
    made here and not in :func:`run`: an in-process caller runs many
    commands, and a freeze per run would keep each earlier run's cyclic
    garbage for good.
    """
    gc.freeze()
    sys.exit(run())


if __name__ == "__main__":
    entrypoint()
