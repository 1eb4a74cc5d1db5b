"""Command-line interface: fit, audit, influence, efficiency, plot, reproduce.

Exit codes: 0 success (including "no violation found"), 1 reproduction
failure, 2 malformed input or an output file that cannot be written,
3 mechanism contract violation, 4 internal inconsistency (a guarantee of
the method failed numerically), 141 standard output closed by its reader
(as for a process killed by SIGPIPE, e.g. under ``| head``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .audit import (
    BUILTIN_NAMES,
    BuiltinInstance,
    MechanismSpec,
    ViolationCertificate,
    audit_gsp,
    audit_sp,
    builtin_instance,
    default_candidates,
    efficiency_terms,
    fit_mechanism,
    influence_bounds,
    lowerbound_instance,
)
from .core import DataSet, Hyperplane, outcomes, predict
from .datafiles import (
    MECHANISM_NAMES,
    InputError,
    extended_jsonable,
    mechanism_jsonable,
    read_dataset,
    resolve_mechanism,
)
from .erm import quantile_risk
from .errors import ContractViolation, InternalInconsistency
from .svgplot import render_plot

EXIT_OK = 0
EXIT_REPRODUCE_FAIL = 1
EXIT_INPUT = 2
EXIT_CONTRACT = 3
EXIT_INCONSISTENT = 4
EXIT_BROKEN_PIPE = 141


def _print_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False))


def _hyperplane_jsonable(h: Hyperplane) -> dict:
    return {"beta1": [float(v) for v in h.beta1], "beta0": float(h.beta0)}


def _certificate_jsonable(cert: ViolationCertificate) -> dict:
    return {
        "coalition": list(cert.coalition),
        "misreports": {str(k): float(v) for k, v in cert.misreports.items()},
        "before": list(cert.before),
        "after": list(cert.after),
        "truthful": _hyperplane_jsonable(cert.truthful),
        "deviated": _hyperplane_jsonable(cert.deviated),
    }


def _load_inputs(args) -> tuple[DataSet, MechanismSpec, BuiltinInstance | None]:
    """The data and mechanism, plus the built-in instance they came from."""
    if args.builtin is not None:
        if args.data or args.config or args.mechanism:
            raise InputError("--builtin already carries data and mechanism")
        inst = builtin_instance(args.builtin)
        return inst.data, inst.mechanism, inst
    if not args.data:
        raise InputError("need --data (or --builtin)")
    data = read_dataset(args.data)
    return data, resolve_mechanism(args.mechanism, args.config, data), None


# --------------------------------------------------------------------------
# subcommands


def cmd_fit(args) -> int:
    data, spec, _ = _load_inputs(args)
    h = fit_mechanism(spec, data)
    record = outcomes(h, data)
    _print_json({
        "beta0": float(h.beta0),
        "beta1": [float(v) for v in h.beta1],
        "mechanism": mechanism_jsonable(spec),
        "predictions": [float(v) for v in record.predictions],
        "residuals": [float(v) for v in record.residuals],
    })
    return EXIT_OK


def cmd_audit(args) -> int:
    data, spec, inst = _load_inputs(args)
    if args.mode == "sp":
        agents = [args.agent] if args.agent is not None else list(range(data.n))
        cert = None
        for agent in agents:
            candidates = None
            if inst is not None:
                candidates = default_candidates(data, agent)
                if agent == inst.deviator:
                    candidates = [inst.misreport] + candidates
            cert = audit_sp(spec, data, agent, candidates=candidates)
            if cert is not None:
                break
    else:
        for flag, value in (("--candidates", args.candidates), ("--max-evals", args.max_evals)):
            if value is not None and value < 0:
                raise InputError(f"{flag} must be nonnegative, got {value}")
        cert = audit_gsp(spec, data, max_coalition=args.max_coalition,
                         candidates_per_agent=args.candidates, seed=args.seed,
                         max_evals=args.max_evals)
    _print_json({"violation": None if cert is None else _certificate_jsonable(cert)})
    return EXIT_OK


def cmd_influence(args) -> int:
    data, spec, _ = _load_inputs(args)
    agents = [args.agent] if args.agent is not None else list(range(data.n))
    bounds = []
    for agent in agents:
        b = influence_bounds(spec, data, agent)
        bounds.append({"agent": agent,
                       "lower": extended_jsonable(b.lower),
                       "upper": extended_jsonable(b.upper)})
    _print_json({"bounds": bounds})
    return EXIT_OK


def cmd_efficiency(args) -> int:
    data, spec, _ = _load_inputs(args)
    mech_rss, ols_rss, ratio = efficiency_terms(spec, data)
    _print_json({"mechanism_rss": mech_rss, "ols_rss": ols_rss,
                 "ratio": extended_jsonable(ratio)})
    return EXIT_OK


def cmd_plot(args) -> int:
    data, spec, inst = _load_inputs(args)
    deviation = None if inst is None else (inst.deviator, inst.misreport)
    if args.deviate_agent is not None or args.deviate_value is not None:
        if inst is not None:
            raise InputError("--builtin already carries its deviation")
        if args.deviate_agent is None or args.deviate_value is None:
            raise InputError("--deviate-agent and --deviate-value go together")
        deviation = (args.deviate_agent, args.deviate_value)
    truthful = fit_mechanism(spec, data)
    lines = [("truthful fit", truthful, "solid")]
    if deviation is not None:
        deviated_data = data.with_reports({deviation[0]: deviation[1]})
        deviated = fit_mechanism(spec, deviated_data)
        lines.append(("after deviation", deviated, "dashed"))
    svg = render_plot(data, lines, deviation=deviation,
                      title=args.builtin or args.data)
    try:
        with open(args.out, "w") as fh:
            fh.write(svg)
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    print(args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# reproduction report


def _check(lines: list[str], label: str, passed: bool, detail: str) -> bool:
    lines.append(f"{'PASS' if passed else 'FAIL'} {label}: {detail}")
    return passed


def _deviation(name: str):
    """A built-in instance fitted on its truthful reports and under its
    documented misreport, with the deviator's true |residual| under each:
    ``(inst, deviated_data, truthful, deviated, before, after)``."""
    inst = builtin_instance(name)
    truthful = fit_mechanism(inst.mechanism, inst.data)
    deviated_data = inst.data.with_reports({inst.deviator: inst.misreport})
    deviated = fit_mechanism(inst.mechanism, deviated_data)
    x = inst.data.xs[inst.deviator]
    y = inst.data.ys[inst.deviator]
    return (inst, deviated_data, truthful, deviated,
            abs(y - predict(truthful, x)), abs(y - predict(deviated, x)))


def _reference_line(inst: BuiltinInstance, key: str) -> Hyperplane:
    slope, intercept = inst.reference_lines[key]
    return Hyperplane([slope], intercept)


def _reproduce_fig1a() -> tuple[bool, list[str]]:
    lines: list[str] = []
    inst, _, truthful, deviated, before, after = _deviation("crm-disjoint")
    ok = True
    for key, fit in (("truthful", truthful), ("deviated", deviated)):
        ref = _reference_line(inst, key)
        ok &= _check(lines, f"fig1a {key} line", fit.close_to(ref, 1e-9),
                     f"computed ({fit.beta1[0]:.12g}, {fit.beta0:.12g}), "
                     f"expected ({ref.beta1[0]:g}, {ref.beta0:g})")
    ok &= _check(lines, "fig1a manipulation gain",
                 abs(before - 2.0) <= 1e-9 and abs(after - 1.2) <= 1e-9,
                 f"true |residual| {before:.12g} -> {after:.12g}, expected 2 -> 1.2")
    return ok, lines


def _reproduce_fig1b() -> tuple[bool, list[str]]:
    lines: list[str] = []
    inst, _, truthful, _, before, after = _deviation("crm-subset")
    ok = _check(lines, "fig1b manipulation gain", before - after >= 1e-6,
                f"true |residual| {before:.12g} -> {after:.12g}")
    matches = [label for label, key in (("figure 0.5x + 3.5", "figure_truthful"),
                                        ("text 2x/3 + 8/3", "text_truthful"))
               if truthful.close_to(_reference_line(inst, key), 1e-9)]
    lines.append(
        f"INFO fig1b truthful line ({truthful.beta1[0]:.12g}, {truthful.beta0:.12g}) "
        f"matches: {', '.join(matches) if matches else 'neither reference'} "
        "(the published text and figure disagree)"
    )
    ok &= _check(lines, "fig1b truthful matches a reference", bool(matches),
                 "see INFO line above")
    return ok, lines


def _reproduce_quantile() -> tuple[bool, list[str]]:
    lines: list[str] = []
    inst, deviated_data, truthful, deviated, before, after = _deviation("quantile04")
    ref = inst.reference_lines["figure_truthful"]
    ok = _check(lines, "quantile truthful line",
                abs(truthful.beta1[0] - ref[0]) <= 1e-4
                and abs(truthful.beta0 - ref[1]) <= 1e-4,
                f"computed ({truthful.beta1[0]:.6f}, {truthful.beta0:.6f}), "
                f"figure ({ref[0]}, {ref[1]})")
    shift = float(np.max(np.abs(deviated.coefficients() - truthful.coefficients())))
    ok &= _check(
        lines, "quantile misreport leaves the fit unchanged", shift <= 1e-9,
        f"coefficient shift {shift:.3e}, true |residual| {before:.12g} -> "
        f"{after:.12g} (the report stays above the line, so the optimum "
        "does not move)")
    fig = inst.reference_lines["figure_deviated"]
    fit_risk = quantile_risk(deviated_data, inst.mechanism.params, deviated)
    fig_risk = quantile_risk(deviated_data, inst.mechanism.params,
                             Hyperplane([fig[0]], fig[1]))
    ok &= _check(
        lines, "quantile figure deviated line is suboptimal",
        fig_risk - fit_risk >= 1e-3,
        f"q-risk on the deviated data {fig_risk:.12g} vs optimum {fit_risk:.12g}")
    cert = audit_sp(inst.mechanism, inst.data, inst.deviator)
    ok &= _check(lines, "quantile audit finds no profitable misreport",
                 cert is None,
                 "none found" if cert is None
                 else f"misreport {cert.misreports[inst.deviator]!r} pays off")
    return ok, lines


def _reproduce_lowerbound(n_values) -> tuple[bool, list[str]]:
    lines: list[str] = []
    ok = True
    for n in n_values:
        data, diag = lowerbound_instance(n)
        ok &= _check(lines, f"lowerbound n={n} T(X)=1",
                     abs(diag.t_value - 1.0) <= 1e-9,
                     f"|T-1| = {abs(diag.t_value - 1.0):.3e}")
        expect0 = diag.probe ** 2 / 2.0
        ok &= _check(lines, f"lowerbound n={n} unconstrained risk",
                     abs(diag.ols_rss - expect0) <= 1e-9 * expect0,
                     f"{diag.ols_rss:.12g} vs h^2/2 = {expect0:.12g}")
        expect1 = diag.probe ** 2
        ok &= _check(lines, f"lowerbound n={n} constrained risk",
                     abs(diag.constrained_rss - expect1) <= 1e-6 * expect1,
                     f"{diag.constrained_rss:.12g} vs h^2 = {expect1:.12g}")
        ok &= _check(lines, f"lowerbound n={n} ratio",
                     abs(diag.ratio - 2.0) <= 1e-5,
                     f"{diag.ratio:.12g} vs 2")
    return ok, lines


#: reproduce target -> the reports it prints, given ``--n`` (which sizes
#: the ``lowerbound`` target, alone or as part of ``all``)
_REPRODUCE = {
    "fig1a": lambda n: [_reproduce_fig1a()],
    "fig1b": lambda n: [_reproduce_fig1b()],
    "quantile": lambda n: [_reproduce_quantile()],
    "lowerbound": lambda n: [_reproduce_lowerbound(range(3, 11) if n is None else [n])],
}
_REPRODUCE["all"] = lambda n: [run for target in ("fig1a", "fig1b", "quantile", "lowerbound")
                               for run in _REPRODUCE[target](n)]


def cmd_reproduce(args) -> int:
    if args.n is not None and args.target not in ("lowerbound", "all"):
        raise InputError(f"--n sizes the lowerbound instances; {args.target} has none")
    runs = _REPRODUCE[args.target](args.n)
    all_ok = True
    for ok, lines in runs:
        all_ok &= ok
        for line in lines:
            print(line)
    return EXIT_OK if all_ok else EXIT_REPRODUCE_FAIL


# --------------------------------------------------------------------------
# argument parsing


def _add_common(parser) -> None:
    parser.add_argument("--data", help="CSV file with header x1,...,xd,y")
    parser.add_argument("--mechanism",
                        help=f"mechanism kind or preset ({MECHANISM_NAMES})")
    parser.add_argument("--config", help="JSON mechanism config file")
    parser.add_argument("--builtin",
                        choices=BUILTIN_NAMES,
                        help="use a built-in instance instead of --data/--config")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="truthfit",
        description="Strategyproof linear regression: fit, audit, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit a mechanism and print the line as JSON")
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("audit", help="search for profitable misreports")
    p.add_argument("mode", choices=["sp", "gsp"])
    _add_common(p)
    p.add_argument("--agent", type=int, help="restrict the sp search to one agent")
    p.add_argument("--max-coalition", type=int, default=3)
    p.add_argument("--candidates", type=int, default=41,
                   help="grid points per agent (gsp)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-evals", type=int, default=None,
                   help="cap on sampled joint misreports per coalition size (gsp)")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("influence", help="per-agent influence bounds (l, h)")
    _add_common(p)
    p.add_argument("--agent", type=int)
    p.set_defaults(func=cmd_influence)

    p = sub.add_parser("efficiency", help="squared-loss ratio against least squares")
    _add_common(p)
    p.set_defaults(func=cmd_efficiency)

    p = sub.add_parser("plot", help="render an SVG scatter with fitted lines (d=1)")
    _add_common(p)
    p.add_argument("--deviate-agent", type=int)
    p.add_argument("--deviate-value", type=float)
    p.add_argument("--out", default="plot.svg", help="output SVG path")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("reproduce", help="re-run the documented findings")
    p.add_argument("target", choices=list(_REPRODUCE))
    p.add_argument("--n", type=int,
                   help="lowerbound instance size, also within all (default 3..10)")
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped reading; point stdout at devnull so that the
        # interpreter's final flush of what is left does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
