"""Per-layer metrics of a traced run, one layer per partcache module.

Counts and times are per traced round.  Which end-to-end metric each one
should move is written down in README.md.
"""

from __future__ import annotations

import statistics

import oracle
from tracer import Tracer
from workloads import CLOSED_FORMS, ENGINE_HOOKS, SIMULATORS, SOLVERS

SAMPLE = "simulate.sample_network"
DECODE = "simulate.sic_decode_chain"
NOISE = "analysis.sic_noise_factor"
QUADRATURE = "special.beta_complement"
VALIDATORS = ("model.validate_rlnc", "model.validate_uc")
FILE_FORMS = ("analysis.stp_rlnc_file", "analysis.stp_uc_file")


def _stations(counters, args, kwargs, result):
    counters["stations"] += result.bs_distances.size


def _distinct_fields(fields):
    """A hook that also records each field once, keyed by what its stream fixes.

    Simulator calls that share a seed draw trial t's field from the same
    stream, so one sweep replays each field in every design; the station
    count and the first fading power do not depend on the configuration.
    """

    def hook(counters, args, kwargs, result):
        _stations(counters, args, kwargs, result)
        size = result.fading_powers.size
        fields[(size, float(result.fading_powers[0]))] = size

    return hook


def _frontier(counters, args, kwargs, result):
    counters["frontier"] = len(result)


def _upgrades(counters, args, kwargs, result):
    instance = args[0] if args else kwargs["instance"]
    counters["upgrades"] += instance.n_classes * (counters["frontier"] - 1)


LAYER_HOOKS = {
    **ENGINE_HOOKS,
    SAMPLE: _stations,
    DECODE: None,
    "special.beta": None,
    QUADRATURE: None,
    NOISE: None,
    "analysis.coupon_pmf": None,
    **{name: None for name in FILE_FORMS},
    "optimize.build_mckp": None,
    "optimize.undominated_indices": _frontier,
    "optimize.greedy_mckp": _upgrades,
    **{name: None for name in VALIDATORS},
    "model.load_config": None,
    "model.zipf_popularity": None,
    "cli.main": None,
}


def layer_tracer(pc) -> Tracer:
    import partcache.cli  # noqa: F401  (so cli metrics read 0, not missing, elsewhere)

    fields: dict = {}
    tracer = Tracer(pc, {**LAYER_HOOKS, SAMPLE: _distinct_fields(fields)})
    tracer.fields = fields
    return tracer


def _counter(tracer, key, *sources):
    """A hook counter, or None when its sources are all missing or one broke."""
    if not any(s in tracer.stats for s in sources) or any(s in tracer.broken for s in sources):
        return None
    return tracer.counters[key]


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(tracer, traced, plain) -> dict:
    n = len(traced)

    def per(value):
        return None if value is None else value / n

    trials = _counter(tracer, "trials", *SIMULATORS)
    networks = tracer.calls(SAMPLE)
    stations = _counter(tracer, "stations", SAMPLE)
    quadrature = None
    if QUADRATURE in tracer.stats and NOISE in tracer.stats:
        quadrature = tracer.stats[QUADRATURE].callers[NOISE]
    noise_calls = tracer.calls(NOISE)
    return {
        "simulate.trials": per(trials),
        "simulate.networks_sampled": per(networks),
        "simulate.stations_drawn": per(stations),
        "simulate.decode_calls": per(tracer.calls(DECODE)),
        "simulate.bytes_drawn_computed": per(None if stations is None else 16 * stations),
        "simulate.sample_network_s": per(tracer.inclusive(SAMPLE)),
        "simulate.decode_chain_s": per(tracer.inclusive(DECODE)),
        "simulate.trial_overhead_s": per(tracer.self_time(*SIMULATORS)),
        "simulate.networks_per_trial": _ratio(networks, trials),
        "simulate.stations_per_network": _ratio(stations, networks),
        "special.beta_complement_calls": per(tracer.calls(QUADRATURE)),
        "special.beta_complement_s": per(tracer.inclusive(QUADRATURE)),
        "special.beta_s": per(tracer.inclusive("special.beta")),
        "analysis.sic_noise_factor_calls": per(noise_calls),
        "analysis.noise_factor_hit_ratio": (
            None if quadrature is None else 1.0 - _ratio(quadrature, noise_calls)
        ),
        "analysis.sic_noise_factor_s": per(tracer.self_time(NOISE)),
        "analysis.coupon_pmf_calls": per(tracer.calls("analysis.coupon_pmf")),
        "analysis.coupon_pmf_s": per(tracer.inclusive("analysis.coupon_pmf")),
        "analysis.stp_s": per(tracer.self_time(*CLOSED_FORMS, *FILE_FORMS)),
        "optimize.build_mckp_s": per(tracer.inclusive("optimize.build_mckp")),
        "optimize.greedy_mckp_s": per(tracer.inclusive("optimize.greedy_mckp")),
        "optimize.upgrades": per(_counter(tracer, "upgrades", "optimize.greedy_mckp", "optimize.undominated_indices")),
        "optimize.solve_s": per(tracer.self_time(*SOLVERS)),
        "model.validate_s": per(tracer.inclusive(*VALIDATORS)),
        "model.validate_calls": per(tracer.calls(*VALIDATORS)),
        "model.load_config_s": per(tracer.inclusive("model.load_config")),
        "model.zipf_popularity_s": per(tracer.inclusive("model.zipf_popularity")),
        "cli.self_s": per(tracer.self_time("cli.main")),
        "cli.rows_written": per(sum(t.rows for t in traced)),
        "trace.overhead_s": statistics.median(t.wall_s for t in traced)
        - statistics.median(t.wall_s for t in plain),
    }


def check_layers(pc, tracer) -> list[str]:
    """The distinct sampled fields hold a Poisson number of stations with mean DEFAULT_DISC_SCALE**2.

    Only distinct fields are independent draws: a field replayed under a
    shared seed would count its deviation once per replay.
    """
    counts = list(tracer.fields.values())
    scale = getattr(pc, "DEFAULT_DISC_SCALE", None)
    if not counts or SAMPLE in tracer.broken or scale is None:
        return []
    error = oracle.check_poisson_mean(
        "simulate.stations_per_network", statistics.fmean(counts), len(counts), scale * scale
    )
    return [error] if error else []
