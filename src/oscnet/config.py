"""Experiment configuration: a single JSON document, fully validated.

Schema sketch (defaults in parentheses):

    {
      "seed": 12345,
      "model": {
        "dimension": 1,
        "topology": {"fixture": "fig2_chain11"}
                    | {"vertices": [...], "edges": [[u, v], ...], "baths": [...]},
        "bath_defaults": {"gamma": 1.0, "temperature": 1.0},
        "bath_overrides": {"<vertex>": {"gamma": g, "temperature": T}, ...},
        "pinning": {"default": <potential>, "per_vertex": {"<vertex>": <potential>}},
        "interaction": {"default": <potential>, "per_edge": [{"edge": [u, v], "potential": <potential>}]}
      },
      "experiment": {"kind": "check" | "simulate" | "equilibrium-test" |
                              "lyapunov-scan" | "dissipation-scan" |
                              "decay-fit" | "counterexample-c4",
                     "h": <step size>, ...},
      "output": {"directory": "out", "formats": ["json", "csv"]}
    }

Every keyed section is checked against a table of its parameters, each
with a default and a check (``_parse_section``): ``output`` against
``_OUTPUT``, ``bath_defaults`` and each ``bath_overrides`` entry against
``_BATH`` (an override's defaults are the parsed ``bath_defaults``).  A
tagged section's tag names its table: ``experiment.kind`` a row of
``_EXPERIMENTS``, a potential's ``family`` a row of ``_FAMILIES`` (its
spec class and parameters).  ``h`` is the step size of every kind but
``check``; the two energy scans shrink it with the energy
(``dynamics.scaled_step``).  ``lyapunov-scan`` takes theta (with
theta * T_max < 1), t_star, ensemble, energy_grid and placement;
``dissipation-scan`` takes epsilon, ensemble, energy_grid, lambda (<= 0.5
when the pinning degree is 2) and placement.  Both need common interaction
and pinning degrees >= 2, the exponents of their time scales: a model
without them is a config error at ``experiment``.

The ``initial`` state of ``simulate`` and ``decay-fit`` is checked against
the built model the same way (``_initial_states``):

    {"kind": "zero"} | {"kind": "energy", "H0": H0 > 0, "mode": "interaction" | "pinning"}
    | {"kind": "explicit", "p": rows, "q": rows}   (vertices x dim numbers)
    | {"kind": "slow-mode", "scale": 30.0}

An unknown key is an error wherever it appears: at the top level, in
``model``, its ``topology`` (a fixture topology has only ``fixture``),
``bath_defaults`` and ``bath_overrides`` entries, ``pinning``,
``interaction`` and its ``per_edge`` entries, in any potential spec (per
family, below), in ``output``, ``experiment`` or ``experiment.initial``.
An unknown parameter of a table is reported as "unknown key".

Potentials: {"family": "soft_power", "degree": r} |
            {"family": "even_power", "degree": r} |
            {"family": "quadratic", "stiffness": scalar or n x n rows} |
            {"family": "local_piece", "terms": [[coeff, [exponents]], ...], "offset": 0}.
A ``local_piece`` exponent is a non-negative integer (``2.0`` reads as 2;
``2.7``, ``"2"`` and ``true`` are errors).  The echo of a spec is its
family and its spec class's fields but ``dim``.

Validation walks the whole document and reports every problem (with a
config path string) before giving up; ``parse_config`` either returns a
fully-built configuration or raises :class:`ConfigError` with the list.
The canonical echo of a parsed config re-parses to the same echo.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Any

from .diagnostics import resolve_observable
from .dynamics import _scan_degrees
from .errors import ConfigError
from .model import BathSpec, Model
from .potentials import EvenPower, LocalPiece, Quadratic, SoftPower
from .topology import Edge, NetworkTopology, builtin_fixture, fixture_table

__all__ = ["ExperimentConfig", "parse_config", "EXPERIMENT_KINDS"]

class _Errors:
    def __init__(self):
        self.messages: list[str] = []

    def add(self, path: str, msg: str) -> None:
        self.messages.append(f"{path}: {msg}")

    def raise_if_any(self) -> None:
        if self.messages:
            raise ConfigError(self.messages)


def _is_object(doc, path, errors) -> bool:
    """Whether ``doc`` is a JSON object; an error at ``path`` if not."""
    if not isinstance(doc, dict):
        errors.add(path, f"expected an object, got {type(doc).__name__}")
        return False
    return True


def _expect_mapping(doc, path, errors) -> dict:
    return doc if _is_object(doc, path, errors) else {}


def _is_number(val) -> bool:
    """A number that is finite as a float.  ``json`` also parses NaN,
    Infinity and integers beyond the float range."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


def seed_problem(seed) -> str | None:
    """Why ``seed`` cannot be a run's seed, or None.  A noise stream is
    keyed by the seed modulo 2^64, so a seed outside [0, 2^64) would
    silently share the streams of another."""
    if not 0 <= seed < 2 ** 64:
        return f"must be in [0, 2^64), got {seed!r}"
    return None


def _reject_unknown(doc, known, path, errors) -> None:
    for key in sorted(set(doc) - set(known)):
        errors.add(f"{path}.{key}", "unknown key")


def _get_number(doc, key, path, errors, default=None, required=False,
                minimum=None, strict_min=None, integer=False):
    if key not in doc:
        if required:
            errors.add(f"{path}.{key}", "is required")
        return default
    val = doc[key]
    if not _is_number(val):
        errors.add(f"{path}.{key}", f"expected a number, got {val!r}")
        return default
    if integer and int(val) != val:
        errors.add(f"{path}.{key}", f"expected an integer, got {val!r}")
        return default
    if minimum is not None and val < minimum:
        errors.add(f"{path}.{key}", f"must be >= {minimum}, got {val!r}")
        return default
    if strict_min is not None and val <= strict_min:
        errors.add(f"{path}.{key}", f"must be > {strict_min}, got {val!r}")
        return default
    return int(val) if integer else float(val)


_STIFFNESS = (lambda v: _is_number(v) or (isinstance(v, list) and all(
                  isinstance(row, list) and all(_is_number(x) for x in row) for row in v)),
              "expected a number or a matrix (list of rows of numbers)")
_TERMS = (lambda v: isinstance(v, list) and v and all(
              isinstance(t, list) and len(t) == 2 and _is_number(t[0]) and isinstance(t[1], list)
              and all(_is_number(e) and e >= 0 and e == int(e) for e in t[1]) for t in v),
          "expected a non-empty list of [coeff, [exponents]] pairs: a number and a list of "
          "non-negative integers")

# Every potential family: its spec class, and the parameters of its spec
# as in _EXPERIMENTS.  The class is called with them and ``dim``.
_FAMILIES = {
    "soft_power": (SoftPower, {"degree": (None, {"required": True, "minimum": 2})}),
    "even_power": (EvenPower, {"degree": (None, {"required": True, "minimum": 2, "integer": True})}),
    "quadratic": (Quadratic, {"stiffness": (None, _STIFFNESS)}),
    "local_piece": (LocalPiece, {"terms": (None, _TERMS), "offset": (0.0, {})}),
}


def _parse_potential(doc, path, dim, errors):
    start = len(errors.messages)
    spec = _parse_kind(doc, {family: params for family, (_, params) in _FAMILIES.items()},
                       path, errors, tag="family")
    if len(errors.messages) > start:
        return None
    cls, _ = _FAMILIES[spec.pop("family")]
    try:
        return cls(dim=dim, **spec)
    except (TypeError, ValueError) as exc:
        errors.add(path, str(exc))
        return None


def _canonical_potential(spec) -> dict:
    family = next(name for name, (cls, _) in _FAMILIES.items() if type(spec) is cls)
    return {"family": family, **{f.name: getattr(spec, f.name) for f in fields(spec) if f.name != "dim"}}


@dataclass
class ExperimentConfig:
    """Validated configuration plus the built model (when one is defined)."""

    seed: int
    experiment: dict
    output: dict
    model: Model | None
    echo_doc: dict

    @property
    def kind(self) -> str:
        return self.experiment["kind"]

    def echo(self) -> str:
        return json.dumps(self.echo_doc, sort_keys=True, indent=2) + "\n"


def _parse_topology(doc, path, errors):
    if not _is_object(doc, path, errors):
        return None, None, None
    _reject_unknown(doc, ("fixture",) if "fixture" in doc else ("vertices", "edges", "baths"),
                    path, errors)
    if "fixture" in doc:
        name = doc["fixture"]
        try:
            topo = builtin_fixture(name)
        except ValueError as exc:
            errors.add(f"{path}.fixture", str(exc))
            return None, None, None
        names, edge_names, bath_names = fixture_table(name)
        return topo, names, {"fixture": name}
    vertices = doc.get("vertices")
    if not isinstance(vertices, list) or not vertices or not all(isinstance(v, str) for v in vertices):
        errors.add(f"{path}.vertices", "expected a non-empty list of vertex names")
        return None, None, None
    if len(set(vertices)) != len(vertices):
        errors.add(f"{path}.vertices", "vertex names must be unique")
        return None, None, None
    start = len(errors.messages)
    index = {v: i for i, v in enumerate(vertices)}
    edges: dict[Edge, int] = {}
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        errors.add(f"{path}.edges", "expected a list of [u, v] pairs")
        raw_edges = []
    for k, pair in enumerate(raw_edges):
        if not (isinstance(pair, list) and len(pair) == 2):
            errors.add(f"{path}.edges[{k}]", f"expected a [u, v] pair, got {pair!r}")
            continue
        u, v = pair
        missing = [x for x in (u, v) if x not in index]
        if missing:
            errors.add(f"{path}.edges[{k}]", f"unknown vertex name(s) {missing} in edge {pair!r}")
            continue
        if u == v:
            errors.add(f"{path}.edges[{k}]", f"loop edge {pair!r} is not allowed")
            continue
        edge = Edge(index[u], index[v])
        if edge in edges:
            errors.add(f"{path}.edges[{k}]", f"edge {pair!r} repeats edges[{edges[edge]}]")
            continue
        edges[edge] = k
    raw_baths = doc.get("baths", [])
    baths: dict[int, int] = {}
    if not isinstance(raw_baths, list):
        errors.add(f"{path}.baths", "expected a list of vertex names")
        raw_baths = []
    for k, b in enumerate(raw_baths):
        if b not in index:
            errors.add(f"{path}.baths[{k}]", f"unknown vertex name {b!r}")
            continue
        if index[b] in baths:
            errors.add(f"{path}.baths[{k}]", f"bath {b!r} repeats baths[{baths[index[b]]}]")
            continue
        baths[index[b]] = k
    if len(errors.messages) > start:
        # Names are still usable for validating the rest of the model.
        return None, tuple(vertices), None
    topo = NetworkTopology(vertex_count=len(vertices), edges=frozenset(edges), baths=frozenset(baths))
    canon = {
        "vertices": list(vertices),
        "edges": sorted([sorted(pair) for pair in ([vertices[e.a], vertices[e.b]] for e in sorted(edges))]),
        "baths": sorted(vertices[b] for b in baths),
    }
    return topo, tuple(vertices), canon


def _parse_model(doc, errors):
    path = "model"
    if not _is_object(doc, path, errors):
        return None, None
    _reject_unknown(doc, ("dimension", "topology", "bath_defaults", "bath_overrides",
                          "pinning", "interaction"), path, errors)
    dim = _get_number(doc, "dimension", path, errors, default=1, minimum=1, integer=True) or 1
    topo, names, topo_canon = _parse_topology(doc.get("topology", {}), f"{path}.topology", errors)
    if names is None:
        return None, None
    bath_ids = sorted(topo.baths) if topo is not None else []

    defaults = _parse_section(
        _expect_mapping(doc.get("bath_defaults", {}), f"{path}.bath_defaults", errors),
        _BATH, f"{path}.bath_defaults", errors)
    override = {key: (defaults[key], check) for key, (_, check) in _BATH.items()}
    overrides = _expect_mapping(doc.get("bath_overrides", {}), f"{path}.bath_overrides", errors)
    baths, bath_canon = {}, {}
    for b in bath_ids:
        name = names[b]
        opath = f"{path}.bath_overrides.{name}"
        bath_canon[name] = _parse_section(_expect_mapping(overrides.get(name, {}), opath, errors),
                                          override, opath, errors)
        try:
            baths[b] = BathSpec(**bath_canon[name])
        except ValueError as exc:
            errors.add(opath, str(exc))
    for name in overrides:
        if name not in names:
            errors.add(f"{path}.bath_overrides.{name}", "unknown vertex name")
        elif topo is not None and names.index(name) not in topo.baths:
            errors.add(f"{path}.bath_overrides.{name}", "vertex is not a bath")

    pin_doc = _expect_mapping(doc.get("pinning", {}), f"{path}.pinning", errors)
    _reject_unknown(pin_doc, ("default", "per_vertex"), f"{path}.pinning", errors)
    pin_default = _parse_potential(
        pin_doc.get("default", {"family": "quadratic", "stiffness": 1.0}),
        f"{path}.pinning.default", dim, errors,
    )
    per_vertex = _expect_mapping(pin_doc.get("per_vertex", {}), f"{path}.pinning.per_vertex", errors)
    pinning = {v: pin_default for v in range(len(names))}
    for name, pot in per_vertex.items():
        if name not in names:
            errors.add(f"{path}.pinning.per_vertex.{name}", "unknown vertex name")
            continue
        pinning[names.index(name)] = _parse_potential(pot, f"{path}.pinning.per_vertex.{name}", dim, errors)

    int_doc = _expect_mapping(doc.get("interaction", {}), f"{path}.interaction", errors)
    _reject_unknown(int_doc, ("default", "per_edge"), f"{path}.interaction", errors)
    int_default = _parse_potential(
        int_doc.get("default", {"family": "quadratic", "stiffness": 1.0}),
        f"{path}.interaction.default", dim, errors,
    )
    interaction = {e: int_default for e in (topo.edges if topo is not None else ())}
    per_edge = int_doc.get("per_edge", [])
    if not isinstance(per_edge, list):
        errors.add(f"{path}.interaction.per_edge", "expected a list")
        per_edge = []
    for k, entry in enumerate(per_edge):
        if not _is_object(entry, f"{path}.interaction.per_edge[{k}]", errors):
            continue
        _reject_unknown(entry, ("edge", "potential"), f"{path}.interaction.per_edge[{k}]", errors)
        pair = entry.get("edge")
        if not (isinstance(pair, list) and len(pair) == 2 and all(x in names for x in pair)):
            errors.add(f"{path}.interaction.per_edge[{k}].edge",
                       f"expected a [u, v] pair of known vertex names, got {pair!r}")
            continue
        e = Edge(names.index(pair[0]), names.index(pair[1]))
        if topo is not None and e not in topo.edges:
            errors.add(f"{path}.interaction.per_edge[{k}].edge", f"{pair!r} is not an edge of the topology")
            continue
        pot = _parse_potential(entry.get("potential", {}),
                               f"{path}.interaction.per_edge[{k}].potential", dim, errors)
        if topo is not None:
            interaction[e] = pot

    if topo is None or errors.messages:
        return None, None
    if any(p is None for p in pinning.values()) or any(p is None for p in interaction.values()):
        return None, None
    try:
        model = Model(topology=topo, dim=dim, pinning=pinning, interaction=interaction, baths=baths)
    except ValueError as exc:
        errors.add(path, str(exc))
        return None, None

    canon = {
        "dimension": dim,
        "topology": topo_canon,
        "bath_defaults": defaults,
        "bath_overrides": bath_canon,
        "pinning": {
            "default": _canonical_potential(pin_default),
            "per_vertex": {
                names[v]: _canonical_potential(pinning[v])
                for v in topo.vertices
                if pinning[v] != pin_default
            },
        },
        "interaction": {
            "default": _canonical_potential(int_default),
            "per_edge": [
                {"edge": [names[e.a], names[e.b]], "potential": _canonical_potential(interaction[e])}
                for e in sorted(topo.edges)
                if interaction[e] != int_default
            ],
        },
    }
    return model, canon


# How each experiment parameter is checked: keyword arguments of
# _get_number for a number, else a test of the value and the message a
# failed test gives.
_POSITIVE = {"strict_min": 0}


def _count(least: int) -> dict:
    return {"minimum": least, "integer": True}


_OBJECT = (lambda v: isinstance(v, dict), "expected an object")
_NAMES = (lambda v: isinstance(v, list) and v and all(isinstance(o, str) for o in v),
          "expected a non-empty list of observable names")
_ENERGIES = (lambda v: (isinstance(v, list) and v and all(_is_number(g) and g > 0 for g in v)
                        and sorted(v) == v),
             "expected an increasing list of positive energies")
_PLACEMENT = (lambda v: v in ("interaction", "pinning"), "expected 'interaction' or 'pinning'")

_BATH = {"gamma": (1.0, _POSITIVE), "temperature": (1.0, {"minimum": 0})}
_OUTPUT = {
    "directory": ("out", (lambda v: isinstance(v, str) and v != "", "expected a non-empty string")),
    "formats": (["json", "csv"],
                (lambda v: isinstance(v, list) and v and all(f in ("json", "csv") for f in v),
                 "expected a non-empty list drawn from ['json', 'csv']")),
}

# Every parameter of each experiment kind: its default and its check.
# Observable names are resolved against the built model in parse_config.
_EXPERIMENTS: dict[str, dict[str, tuple[Any, Any]]] = {
    "check": {
        "sphere_samples": (256, _count(100)),
        "nondegeneracy_samples": (20, _count(0)),
    },
    "simulate": {
        "t_end": (10.0, _POSITIVE),
        "h": (1e-3, _POSITIVE),
        "record_every": (10, _count(1)),
        "record_states": (False, (lambda v: isinstance(v, bool), "expected true or false")),
        "initial": ({"kind": "zero"}, _OBJECT),
    },
    "equilibrium-test": {
        "observables": (["H"], _NAMES),
        "n_samples": (4000, _count(100)),
        "t_check": (10.0, _POSITIVE),
        "h": (0.005, _POSITIVE),
        "sample_temperature": (None, (lambda v: v is None or (_is_number(v) and v > 0),
                                      "expected a positive number or null")),
    },
    "lyapunov-scan": {
        "theta": (0.25, _POSITIVE),
        "t_star": (1.0, _POSITIVE),
        "ensemble": (2000, _count(100)),
        "energy_grid": ([25.0, 50.0, 100.0, 200.0], _ENERGIES),
        "placement": ("interaction", _PLACEMENT),
        "h": (1e-3, _POSITIVE),
    },
    "dissipation-scan": {
        "epsilon": (1e-3, _POSITIVE),
        "ensemble": (400, _count(100)),
        "energy_grid": ([100.0, 1000.0, 10000.0], _ENERGIES),
        "lambda": (0.5, _POSITIVE),
        "placement": ("interaction", _PLACEMENT),
        "h": (1e-3, _POSITIVE),
    },
    "decay-fit": {
        "observable": ("p2:0", (lambda v: isinstance(v, str), "expected an observable name")),
        "horizon": (30.0, _POSITIVE),
        "ensemble": (6000, _count(100)),
        "h": (0.01, _POSITIVE),
        "grid_points": (120, _count(10)),
        "stationary_samples": (16000, _count(100)),
        "initial": ({"kind": "slow-mode", "scale": 30.0}, _OBJECT),
    },
    "counterexample-c4": {
        "h": (1e-4, _POSITIVE),
        "x_stop": (3.5, _POSITIVE),
    },
}

EXPERIMENT_KINDS = tuple(_EXPERIMENTS)


def _initial_states(shape: tuple[int, int]) -> dict[str, dict[str, tuple[Any, Any]]]:
    """Every parameter of each initial-state kind of a model whose states
    have ``shape`` (vertices, dim), as in ``_EXPERIMENTS``."""
    rows = (lambda v: (isinstance(v, list) and len(v) == shape[0]
                       and all(isinstance(r, list) and len(r) == shape[1]
                               and all(_is_number(x) for x in r) for r in v)),
            f"expected {shape[0]} rows of {shape[1]} numbers (vertices, dim)")
    return {
        "zero": {},
        "energy": {"H0": (None, {"strict_min": 0, "required": True}), "mode": ("interaction", _PLACEMENT)},
        "explicit": {"p": (None, rows), "q": (None, rows)},
        "slow-mode": {"scale": (30.0, _POSITIVE)},
    }


def _parse_section(doc, params, path, errors) -> dict:
    """``{<parameter>: <value>, ...}`` with every parameter in ``params``
    checked, defaults filled in, and unknown keys named."""
    _reject_unknown(doc, params, path, errors)
    out = {}
    for key, (default, check) in params.items():
        if isinstance(check, dict):
            out[key] = _get_number(doc, key, path, errors, default=default, **check)
            continue
        out[key] = doc.get(key, default)
        test, message = check
        if not test(out[key]):
            errors.add(f"{path}.{key}", message)
    return out


def _parse_kind(doc, kinds, path, errors, default_kind=None, tag="kind") -> dict:
    """``{tag: <kind>, <parameter>: <value>, ...}``: the ``tag`` key names
    a row of ``kinds``, and ``_parse_section`` checks the rest against it;
    a ``doc`` that is not an object is one error and ``{tag: None}``."""
    if not _is_object(doc, path, errors):
        return {tag: None}
    kind = doc.get(tag, default_kind)
    if not isinstance(kind, str) or kind not in kinds:
        errors.add(f"{path}.{tag}", f"expected one of {', '.join(kinds)}; got {kind!r}")
        return {tag: kind}
    rest = {key: val for key, val in doc.items() if key != tag}
    return {tag: kind, **_parse_section(rest, kinds[kind], path, errors)}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a configuration document.

    Raises :class:`ConfigError` carrying every validation problem found,
    not just the first; JSON syntax errors include line and column.
    """
    errors = _Errors()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"]) from None
    doc = _expect_mapping(doc, "<root>", errors)
    errors.raise_if_any()

    for key in sorted(set(doc) - {"seed", "model", "experiment", "output"}):
        errors.add(key, "unknown top-level key")
    seed = _get_number(doc, "seed", "<root>", errors, default=0, integer=True)
    if problem := seed_problem(seed):
        errors.add("<root>.seed", problem)
    experiment = _parse_kind(doc.get("experiment", {}), _EXPERIMENTS, "experiment", errors)

    output = _parse_section(_expect_mapping(doc.get("output", {}), "output", errors),
                            _OUTPUT, "output", errors)

    kind = experiment.get("kind")
    model = model_canon = None
    if "model" in doc:
        model, model_canon = _parse_model(doc["model"], errors)
    elif kind in _EXPERIMENTS and kind != "counterexample-c4":
        errors.add("model", f"a model section is required for kind {kind!r}")

    # Cross-section constraints mirroring library preconditions.
    if model is not None and kind == "lyapunov-scan":
        theta, tmax = experiment["theta"], model.t_max
        if tmax > 0 and theta * tmax >= 1:
            errors.add("experiment.theta", f"theta*T_max must be < 1 (theta={theta}, T_max={tmax})")
    if model is not None and kind in ("lyapunov-scan", "dissipation-scan"):
        try:
            _, lp = _scan_degrees(model)
        except ValueError as exc:
            errors.add("experiment", str(exc))
        else:
            # Under quadratic pinning the window does not shrink with the
            # energy: it stays lambda, held to half the default drift
            # horizon (t_star = 1).
            if kind == "dissipation-scan" and lp == 2 and experiment["lambda"] > 0.5:
                errors.add("experiment.lambda", "when the pinning degree is 2, lambda must be <= 0.5")
    if model is not None and isinstance(experiment.get("initial"), dict):
        experiment["initial"] = _parse_kind(
            experiment["initial"], _initial_states((model.vertex_count, model.dim)),
            "experiment.initial", errors, default_kind="zero")
    if model is not None:
        key = "observables" if "observables" in experiment else "observable"
        listed = experiment.get(key)
        for name in listed if isinstance(listed, list) else [listed]:
            if isinstance(name, str):
                try:
                    resolve_observable(model, name)
                except ValueError as exc:
                    errors.add(f"experiment.{key}", str(exc))

    errors.raise_if_any()

    output["formats"] = sorted(output["formats"])
    echo_doc: dict[str, Any] = {"seed": seed, "experiment": experiment, "output": output}
    if model_canon is not None:
        echo_doc["model"] = model_canon
    return ExperimentConfig(
        seed=seed,
        experiment=experiment,
        output=output,
        model=model,
        echo_doc=echo_doc,
    )
