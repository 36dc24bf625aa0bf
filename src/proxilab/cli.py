"""Command-line orchestration: serve the simulator, run attacks, analyze
transitions, sweep latitudes, and regenerate the canned experiment datasets
from a seed.

Every output file carries the full experiment configuration in its header so
a run can be reproduced from its artifacts alone.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import random
import sys
from dataclasses import asdict, dataclass

# analysis and wire, with csv, socket and logging behind them, are imported
# by the commands that run them: every run pays for importing this module.
from . import prober
from .geo import GeoPoint, LocalFrameRangeError, ProjectionDomainError
from .prober import AttackBannedError, DirectionsExhaustedError, InconsistentOracleError, ProbeConfig
from .prober import TargetNotFoundError, collect_transitions
from .service import DEFAULT_DAILY_QUOTA, DEFAULT_GRID_DEG, DEFAULT_SPEED_LIMIT_MPS
from .service import DecodeError, LocalClient, ProtocolError, Quantizer, Service, TargetRegistry

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_BANNED = 4
EXIT_NOT_FOUND = 5

SEED_ENV_VAR = "PROXILAB_SEED"
# --step must exceed this: the tile scan's rung count, 4000 m / step,
# overflows a float for a step near the smallest one.
MIN_STEP_M = 1e-6
# The most rungs past its base that figures' plot ladder deploys.
PLOT_LADDER_RUNGS = 250


class CommandError(Exception):
    """A subcommand's failure, which `main` prints as its one `error:` line
    before exiting with `code`."""

    def __init__(self, message: str, code: int = EXIT_CONFIG):
        super().__init__(message)
        self.code = code


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce a run; echoed into output headers."""

    seed: int = 0
    grid_deg: float = DEFAULT_GRID_DEG
    quota: int = DEFAULT_DAILY_QUOTA
    speed_limit: float = DEFAULT_SPEED_LIMIT_MPS
    accuracy: float = ProbeConfig.accuracy
    jump: float = ProbeConfig.jump
    max_queries: int = ProbeConfig.max_queries
    transitions: int = prober.DEFAULT_TRANSITIONS
    step: float = prober.DEFAULT_STEP_M

    def to_dict(self) -> dict:
        return asdict(self)

    def service(self, registry: TargetRegistry) -> Service:
        return Service(
            registry,
            Quantizer(self.grid_deg),
            daily_quota=self.quota,
            speed_limit_mps=self.speed_limit,
        )

    def probe_config(self) -> ProbeConfig:
        return ProbeConfig(
            accuracy=self.accuracy,
            jump=self.jump,
            max_queries=self.max_queries,
        )


def _parse_bind(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise argparse.ArgumentTypeError(f"expected host:port with a port up to 65535, got {text!r}")
    return host, int(port)


def _parse_account(text: str) -> str:
    # The wire rejects an empty account, so an attack over --endpoint
    # could not send a single query with one.
    if not text:
        raise argparse.ArgumentTypeError("expected a non-empty account id")
    return text


def _parse_point(text: str) -> GeoPoint:
    try:
        lat_s, lon_s = text.split(",")
        return GeoPoint(float(lat_s), float(lon_s))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected lat,lon degrees, got {text!r}") from exc


def _parse_count(text: str, minimum: int = 1) -> int:
    try:
        count = int(text)
    except ValueError:
        count = None
    if count is None or count < minimum:
        raise argparse.ArgumentTypeError(f"expected an integer of at least {minimum}, got {text!r}")
    return count


def _parse_runs(text: str) -> int:
    from . import analysis

    # Each pooled run gives two edge samples per axis to the uniform fits.
    return _parse_count(text, analysis.UNIFORM_FIT_MIN_SAMPLES // 2)


def _parse_positive(text: str, minimum: float = 0.0) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    # False for NaN, which every comparison downstream would pass over.
    if not minimum < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number above {minimum:g}, got {text!r}")
    return value


def _parse_step(text: str) -> float:
    return _parse_positive(text, MIN_STEP_M)


def _parse_out_file(text: str) -> str:
    """An output file path in a writable directory, checked while the flags
    are parsed, so that an output that cannot be written costs no query."""
    parent = os.path.dirname(text) or os.curdir
    if os.path.isdir(text) or not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise argparse.ArgumentTypeError(f"cannot write a file at {text!r}")
    return text


def _read_input(reader, path: str, what: str):
    """reader(path). A file that cannot be read, or whose content the
    reader rejects, is a CommandError naming `what`."""
    try:
        return reader(path)
    except OSError as exc:
        raise CommandError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:  # RegistryFormatError included
        raise CommandError(f"bad {what}: {exc}") from exc


def _config_from_args(args) -> ExperimentConfig:
    """The fields the subcommand has flags for; the others keep their
    ExperimentConfig defaults."""
    return ExperimentConfig(**{name: getattr(args, name) for name in args.config_fields})


# -- subcommands ---------------------------------------------------------------


def build_server(args) -> wire.ApiServer:
    """Registry plus bound endpoint from serve flags; raises CommandError on
    a bad registry and OSError on a failed bind."""
    from . import wire

    registry = _read_input(TargetRegistry.from_jsonl, args.targets, "registry")
    if len(registry) == 0:
        print("warning: registry is empty, serving anyway", file=sys.stderr)
    service = _config_from_args(args).service(registry)
    # Without --bind, ApiServer's own default address.
    server = wire.ApiServer(service, *(args.bind or ()))
    # The only report of an ephemeral port: it must not sit in a pipe's
    # buffer while the server runs.
    print(f"serving {len(registry)} target(s) on {server.address[0]}:{server.address[1]}", flush=True)
    return server


def cmd_serve(args) -> int:
    try:
        server = build_server(args)
    except OSError as exc:  # the bind
        raise CommandError(str(exc)) from exc
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return EXIT_OK


def _registry_position(registry: TargetRegistry, target: str) -> GeoPoint:
    if target not in registry:
        raise CommandError(f"target {target!r} not in registry", EXIT_NOT_FOUND)
    return registry.position(target)


def _attack_client(args, config: ExperimentConfig, stack: contextlib.ExitStack):
    """Either a TCP client for --endpoint, closed with `stack`, or an
    in-process service from --targets. Returns (client, hint)."""
    if args.endpoint is not None:
        from . import wire

        try:
            client = stack.enter_context(wire.TcpClient(*args.endpoint, args.account))
        except OSError as exc:
            raise CommandError(f"cannot open --endpoint: {exc}") from exc
        return client, args.hint
    registry = _read_input(TargetRegistry.from_jsonl, args.targets, "registry")
    position = _registry_position(registry, args.target)
    hint = position if args.hint is None else args.hint
    return LocalClient(config.service(registry), args.account), hint


def cmd_attack(args) -> int:
    if args.endpoint is None and args.targets is None:
        raise CommandError("either --endpoint or --targets is required")
    if args.endpoint is not None and args.targets is not None:
        raise CommandError("--endpoint and --targets exclude each other")
    config = _config_from_args(args)
    try:
        probe_config = config.probe_config()
    except ValueError as exc:  # --jump not above --accuracy
        raise CommandError(str(exc)) from exc
    if args.endpoint is not None and args.hint is None:
        raise CommandError("--hint required (no registry to look the target up in)")
    with contextlib.ExitStack() as stack:
        client, hint = _attack_client(args, config, stack)
        try:
            tset = collect_transitions(
                client,
                args.target,
                hint=hint,
                cfg=probe_config,
                n_transitions=config.transitions,
                rng=random.Random(config.seed),
            )
        except TargetNotFoundError as exc:
            raise CommandError(f"target not found: {exc}", EXIT_NOT_FOUND) from exc
        except AttackBannedError as exc:
            raise CommandError(str(exc), EXIT_BANNED) from exc
        except ProjectionDomainError as exc:  # the hint or a probe past the Mercator limit
            raise CommandError(f"query outside the service's domain: {exc}") from exc
        except InconsistentOracleError as exc:  # the walker's polar defect, or a moving target
            raise CommandError(f"walk got an unexpected class: {exc}") from exc
        except DirectionsExhaustedError as exc:
            raise CommandError(f"no bearing keeps a {config.jump:g} m jump inside the region: {exc}") from exc
        except (ProtocolError, DecodeError) as exc:  # BAD_REQUEST included
            raise CommandError(f"bad reply from --endpoint: {exc}") from exc
        except OSError as exc:
            raise CommandError(f"connection to --endpoint failed: {exc}") from exc
    prober.write_transitions(args.out, tset, config=config.to_dict())
    print(
        f"collected {len(tset)} transition(s) in {tset.total_queries} queries"
        f" ({tset.exploration_queries} exploration) -> {args.out}"
    )
    if tset.budget_exhausted:
        print("budget exhausted before the requested transition count", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def cmd_analyze(args) -> int:
    from . import analysis

    tset, meta = _read_input(prober.read_transitions, args.transitions, "transitions file")
    registry = _read_input(TargetRegistry.from_jsonl, args.targets, "registry")
    anchor = _registry_position(registry, tset.target)
    try:
        report = analysis.build_report(tset, anchor)
    except analysis.InsufficientCoverageError as exc:
        raise CommandError(str(exc)) from exc
    except LocalFrameRangeError as exc:
        raise CommandError(f"transitions far from the registry position of {tset.target!r}: {exc}") from exc
    analysis.write_report_json(args.out, report, config=meta.get("config", {}))
    print(f"report -> {args.out}")
    return EXIT_OK


def _sweep_locations(args):
    from . import analysis

    if args.targets is None:
        return analysis.SWEEP_CITIES
    registry = _read_input(TargetRegistry.from_jsonl, args.targets, "registry")
    return tuple((rec.id, rec.pos.lat, rec.pos.lon) for rec in registry.iter_sorted())


def _warn_failed_rows(rows: list[analysis.SweepRow]) -> None:
    for r in rows:
        if r.error:
            print(f"warning: {r.name}: {r.error}", file=sys.stderr)


def cmd_sweep(args) -> int:
    from . import analysis

    config = _config_from_args(args)
    rows = analysis.latitude_sweep(
        _sweep_locations(args),
        step=config.step,
        grid_deg=config.grid_deg,
        seed=config.seed,
    )
    analysis.write_sweep_csv(args.out, rows, config=config.to_dict())
    _warn_failed_rows(rows)
    print(f"{len(rows)} location(s) -> {args.out}")
    return EXIT_OK


def cmd_figures(args) -> int:
    from . import analysis

    config = _config_from_args(args)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:  # --out names a file, or lies under one
        raise CommandError(f"cannot create the --out directory: {exc}") from exc
    try:
        _write_figures(args, config)
    except (RuntimeError, analysis.InsufficientCoverageError) as exc:  # a canned walk, the ladder or a pooled run
        raise CommandError(f"figures: {exc}") from exc
    print(f"figure datasets -> {args.out}")
    return EXIT_OK


def _write_figures(args, config: ExperimentConfig) -> None:
    """Build every dataset, then write them: a failure leaves --out empty."""
    from . import analysis

    cfg_dict = config.to_dict()
    seed = config.seed

    def path(name: str) -> str:
        return os.path.join(args.out, name)

    summary: dict = {"config": cfg_dict}

    # Pooled edge-offset and centroid-error distributions at lat 23, one
    # deployment per run; a run whose crossings miss a face is dropped.
    base = GeoPoint(23.0, 10.0)
    rng_pool = random.Random(seed)
    targets = [
        GeoPoint(base.lat + rng_pool.uniform(-0.02, 0.02), base.lon + rng_pool.uniform(-0.05, 0.05))
        for _ in range(args.runs)
    ]
    seeds = [seed * 100_003 + k for k in range(args.runs)]

    # The costly jobs, the sweep rows and then the pooled runs, go to the
    # workers first; the walks and the ladder below run here meanwhile.
    with analysis.DeploymentPool(len(analysis.SWEEP_CITIES) + args.runs) as pool:
        row_results = pool.map(
            functools.partial(analysis.sweep_row, step=config.step, grid_deg=config.grid_deg, seed=seed),
            analysis.SWEEP_CITIES,
        )
        box_results = pool.map(functools.partial(analysis.pooled_box, grid_deg=config.grid_deg), targets, seeds)

        # Walk around a target sitting exactly on a grid node at the equator:
        # the canonical transitions scatter and its box. The +1 offset is the
        # canned walk seed whose crossings reach all four arm tips.
        equator_target = GeoPoint(0.0, 0.0)
        tset, _ = analysis.run_probe_deployment(equator_target, seed=seed + 1, grid_deg=config.grid_deg)
        report = analysis.build_report(tset, equator_target)
        summary["walk"] = {"n_transitions": len(tset), "n_queries": tset.total_queries}

        # One mid-latitude deployment for the cell-to-box area ratio.
        mid_target = GeoPoint(40.0, -3.0)
        tset40, service40 = analysis.run_probe_deployment(mid_target, seed=seed, grid_deg=config.grid_deg)
        rect40 = analysis.bounding_box(tset40, mid_target)
        cell = service40.quantizer.cell_size(mid_target.lat)
        summary["uncertainty_ratio"] = {
            "lat": mid_target.lat,
            "cell_size_m": cell,
            "box_w_m": rect40.width,
            "box_h_m": rect40.height,
            "cell_to_box_area_ratio": cell * cell / rect40.area,
        }

        # Boundary-shift ladder behind the tile-size estimate, coarse for the
        # plot: rungs ten steps apart, but no more than PLOT_LADDER_RUNGS.
        ladder_end = 4.5 * Quantizer(config.grid_deg).cell_size(0.0)
        ladder_step = max(config.step * 10, ladder_end / PLOT_LADDER_RUNGS)
        ladder = list(analysis.SimulatorLab(grid_deg=config.grid_deg).ladder(
            GeoPoint(*analysis.SWEEP_CITIES[0][1:]), ladder_step, ladder_end
        ))

        # Shape taxonomy at a low and a mid latitude (low-latitude walk uses the
        # canned +1 seed for full tip coverage, as in the equator walk).
        shapes = {}
        for label, lat, shape_seed in (("low", 5.0, seed + 1), ("mid", 40.0, seed)):
            pos = GeoPoint(lat, 7.25)
            s_set, _ = analysis.run_probe_deployment(pos, seed=shape_seed, grid_deg=config.grid_deg)
            pts = analysis.midpoints_local(s_set, pos)
            shapes[label] = {"lat": lat, "shape": analysis.classify_shape(pts).value}
        summary["shapes"] = shapes

        rows = list(row_results)
        rects = [r for r in box_results if r is not None]

    # Latitude sweep over the bundled city list; its first row, on the
    # ladder's city, is the tile-size estimate.
    summary["tile_estimate"] = {"name": rows[0].name, "l_m": rows[0].tile_size_m, "D_m": rows[0].max_error_m}
    summary["sweep"] = [
        {"name": r.name, "lat": r.lat, "l_m": r.tile_size_m, "D_m": r.max_error_m, "shape": r.shape}
        for r in rows
    ]

    phasors = [analysis.phasor((0.0, 0.0), analysis.centroid(r)) for r in rects]
    d_x, d_y = analysis.edge_offsets(rects)
    rho = [p.rho for p in phasors]
    summary["distributions"] = {
        "runs_used": len(rects),
        "edge_x_fit": list(analysis.fit_uniform(d_x)),
        "edge_y_fit": list(analysis.fit_uniform(d_y)),
        "p_rho_le_200": sum(1 for r in rho if r <= 200.0) / len(rho),
    }

    prober.write_transitions(path("walk_transitions.jsonl"), tset, config=cfg_dict)
    analysis.write_report_json(path("walk_report.json"), report, config=cfg_dict)
    analysis.write_csv(path("tile_shifts.csv"), ["offset_m", "boundary_m"], ladder, config=cfg_dict)
    analysis.write_sweep_csv(path("sweep.csv"), rows, config=cfg_dict)
    _warn_failed_rows(rows)
    # The uniform fits above took at least 20 samples, so no ECDF fails.
    analysis.write_ecdf_csv(path("edge_offset_x_ecdf.csv"), analysis.ecdf(d_x), config=cfg_dict)
    analysis.write_ecdf_csv(path("edge_offset_y_ecdf.csv"), analysis.ecdf(d_y), config=cfg_dict)
    analysis.write_ecdf_csv(path("radius_ecdf.csv"), analysis.ecdf(rho), config=cfg_dict)
    analysis.write_ecdf_csv(path("phase_ecdf.csv"), analysis.ecdf([p.phase for p in phasors]), config=cfg_dict)
    analysis.write_json(path("summary.json"), summary)


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    defaults = ExperimentConfig()
    parser = argparse.ArgumentParser(
        prog="proxilab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p, name: str, help: str | None = None, parse=None) -> None:
        """Flag for one ExperimentConfig field, defaulted by the field's
        default and, unless `parse` says otherwise, typed by it: a count of
        at least 1, or a finite positive float. _config_from_args reads
        back exactly these flags."""
        default = getattr(defaults, name)
        if parse is None:
            parse = _parse_count if type(default) is int else _parse_positive
        p.add_argument("--" + name.replace("_", "-"), type=parse, default=default, help=help)
        p.set_defaults(config_fields=(p.get_default("config_fields") or ()) + (name,))

    grid_help = "tessellation pitch in Mercator degrees"

    def add_common(p) -> None:
        add_config(p, "seed", f"RNG seed (default ${SEED_ENV_VAR} or 0)", parse=int)
        # argparse converts a string default with `type`, so a malformed
        # $PROXILAB_SEED is a usage error like a malformed --seed.
        p.set_defaults(seed=os.environ.get(SEED_ENV_VAR, defaults.seed))
        add_config(p, "grid_deg", grid_help)

    # The server has no randomness, so it takes no --seed.
    p_serve = sub.add_parser("serve", help="run the simulated service over TCP")
    add_config(p_serve, "grid_deg", grid_help)
    p_serve.add_argument("--bind", type=_parse_bind, default=None, help="host:port to listen on")
    p_serve.add_argument("--targets", required=True, help="registry JSONL file")
    add_config(p_serve, "quota", "daily query quota per account")
    add_config(p_serve, "speed_limit", "implied speed ban threshold, m/s")
    p_serve.set_defaults(func=cmd_serve)

    p_attack = sub.add_parser("attack", help="collect transitions around one target")
    add_common(p_attack)
    p_attack.add_argument("--endpoint", type=_parse_bind, default=None, help="host:port of a running service")
    p_attack.add_argument("--targets", default=None, help="registry JSONL for a local in-process service")
    p_attack.add_argument("--account", type=_parse_account, default="finder")
    p_attack.add_argument("--target", required=True, help="target id to localize")
    p_attack.add_argument("--hint", type=_parse_point, default=None, help="rough prior position 'lat,lon'")
    add_config(p_attack, "accuracy")
    add_config(p_attack, "jump")
    add_config(p_attack, "max_queries")
    add_config(p_attack, "transitions")
    p_attack.add_argument("--out", type=_parse_out_file, required=True, help="transitions JSONL output")
    p_attack.set_defaults(func=cmd_attack)

    # analyze echoes the config of the attack that wrote the transitions,
    # so it takes no --seed or --grid-deg of its own.
    p_analyze = sub.add_parser("analyze", help="build a privacy report from transitions")
    p_analyze.add_argument("--transitions", required=True, help="transitions JSONL input")
    p_analyze.add_argument("--targets", required=True, help="registry JSONL with the true target position")
    p_analyze.add_argument("--out", type=_parse_out_file, required=True, help="report JSON output")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sweep = sub.add_parser("sweep", help="tile size and max error across latitudes")
    add_common(p_sweep)
    p_sweep.add_argument("--targets", default=None, help="locations JSONL (defaults to the bundled city list)")
    add_config(p_sweep, "step", "target displacement step, meters", parse=_parse_step)
    p_sweep.add_argument("--out", type=_parse_out_file, required=True, help="sweep CSV output")
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser("figures", help="regenerate the canned experiment datasets")
    add_common(p_fig)
    p_fig.add_argument("--runs", type=_parse_runs, default=300, help="deployments for the pooled distributions")
    add_config(p_fig, "step", parse=_parse_step)
    p_fig.add_argument("--out", required=True, help="output directory")
    p_fig.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
