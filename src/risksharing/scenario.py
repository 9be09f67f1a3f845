"""Scenario files: validation, state-space construction, market building.

A scenario is one YAML (or JSON) document with three sections:

``states``
    Either an explicit finite state list (``model: explicit`` with
    ``weights`` and named per-state ``variables``), or a Gaussian model
    (``model: gaussian`` with named ``variables``, a covariance given
    directly as ``cov`` or as ``std`` + ``corr``, and either a
    deterministic ``quadrature_order`` or ``samples`` + ``seed``).

``agents``
    Each entry carries ``delta`` and a ``beliefs`` entry: explicit
    ``weights``, a ``log_density`` expression over the state variables, or
    an ``endowment`` expression (folded into beliefs at ingestion, with
    optional ``actual`` beliefs, ``weights`` or ``log_density``, beside it).

``limits`` (optional)
    ``mode``, ``one-agent`` (the default) or ``both``; a strictly increasing
    ``deltas`` grid of positive numbers, with a default; and in mode ``both``
    the ``xi0``/``xi1`` expressions and ``lambda0`` in (0, 1).  Validation
    fills in the defaults.

A key that no reader reads is refused in every section.  ``name`` is the
stem of default bundle paths, so it must be a plain file name.

Gaussian grids are tensorised Gauss-Hermite rules over the factor space of
the covariance (near-null directions are dropped), so states and weights
are deterministic; sampling is opt-in and requires a seed.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass

import numpy as np

from .agents import DELTA_MAX, DELTA_MIN, Agent, Market, endowment_to_beliefs
from .errors import ContractError, DimensionError, ValidationError
from .measures import Measure, RandomVariable, StateSpace, normalize_log_density

STATE_CAP = 10**6
# The largest Gauss-Hermite order.  From 361 up the rule's smallest weight
# falls below MIN_WEIGHT, so no state space takes it; refusing such an order
# first spares hermgauss its eigenproblem on an order x order matrix.
QUADRATURE_ORDER_CAP = 360
PSD_CLIP_LIMIT = 1e-2  # largest relative eigenvalue deficit `clip` will absorb

_EXPR_NAMESPACE = {
    "log": np.log,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sign": np.sign,
    "tanh": np.tanh,
    "minimum": np.minimum,
    "maximum": np.maximum,
    "where": np.where,
    "pi": math.pi,
    "e": math.e,
}
# Syntax an expression may use beyond names, numbers and calls.
_EXPR_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Compare, ast.Load,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow, ast.UAdd, ast.USub,
    ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq,
)
# The keys each state model reads.
_STATE_KEYS = {
    "explicit": ("model", "weights", "labels", "variables"),
    "gaussian": ("model", "variables", "mean", "cov", "std", "corr", "quadrature_order",
                 "samples", "seed", "covariance_repair"),
}


@dataclass(frozen=True)
class Scenario:
    """Validated scenario document."""

    name: str
    states: dict
    agents: tuple
    limits: dict | None = None

    @staticmethod
    def from_dict(doc: dict) -> "Scenario":
        return _validate(doc)


def read_scenario(path) -> dict:
    """The scenario document in ``path``, parsed but not validated.

    The YAML parser is imported here: most commands read no scenario file.
    """
    import yaml

    class _TreeLoader(yaml.SafeLoader):
        """The safe loader refusing aliases, which validation would walk once per reference."""

        def compose_node(self, parent, index):
            if self.check_event(yaml.AliasEvent):
                event = self.peek_event()
                raise ValidationError(f"scenario file {self.name} uses the alias *{event.anchor} "
                                      f"at line {event.start_mark.line + 1}; aliases are refused")
            return super().compose_node(parent, index)

    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=_TreeLoader)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            problem = (f"{exc.problem} at line {mark.line + 1}, column {mark.column + 1}"
                       if mark else " ".join(str(exc).split()))
            raise ValidationError(f"scenario file {path} is not YAML: {problem}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"scenario file {path} does not contain a mapping")
    return doc


def load_scenario(path) -> Scenario:
    return Scenario.from_dict(read_scenario(path))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


def _number(value, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a number, got {value!r}") from None


def _finite(value) -> bool:
    """Whether ``value`` is a finite number, or a flat or rectangular list of them."""
    try:
        return bool(np.isfinite(np.asarray(value, dtype=float)).all())
    except (TypeError, ValueError):
        return False


def _boolean_at(node) -> tuple | None:
    """The keys down to the first boolean in ``node``, or None if it holds none.

    YAML reads an unquoted yes, no, on, off, true or false as a boolean, which
    ``float`` would take as 1 or 0; no key of the scenario format takes one.
    """
    if isinstance(node, bool):
        return ()
    if isinstance(node, list):
        node = dict(enumerate(node))
    for key, value in node.items() if isinstance(node, dict) else ():
        path = _boolean_at(value)
        if path is not None:
            return (key, *path)
    return None


def _known(section, keys, what: str) -> None:
    """Refuse ``section`` unless it is a mapping holding only keys that a reader reads."""
    _require(isinstance(section, dict), f"{what} must be a mapping")
    for key in section:
        _require(key in keys, f"{what} reads no key {key!r}; its keys are {', '.join(keys)}")


def _check_beliefs(spec, what: str, forms=("weights", "log_density", "endowment")) -> None:
    """The one belief rule, for ``beliefs`` and for ``actual``, read only beside ``endowment``."""
    _known(spec, forms + ("actual",) * ("endowment" in forms), what)
    _require(sum(key in spec for key in forms) <= 1, f"{what} holds more than one of {forms}")
    _require("endowment" in spec or "actual" not in spec, f"{what}: 'actual' needs 'endowment'")
    if spec.get("actual") is not None:
        _check_beliefs(spec["actual"], f"{what}.actual", forms[:2])


def _validate(doc: dict) -> Scenario:
    _known(doc, ("name", "states", "agents", "limits"), "the scenario")
    where = ".".join(map(str, _boolean_at(doc) or ()))  # never empty: a key sits above
    _require(not where, f"{where} is a boolean, not a number or a string")
    name = doc.get("name", "scenario")
    plain = isinstance(name, str) and name not in ("", ".", "..") and not set(name) & set("/\\\0")
    _require(plain, f"scenario name must be a plain file name, got {name!r}")
    states = doc.get("states")
    _require(isinstance(states, dict), "scenario needs a 'states' section")
    model = states.get("model")
    _require(model in ("explicit", "gaussian"), f"unknown state model {model!r}")
    _known(states, _STATE_KEYS[model], f"the {model} state model")
    for key in ("quadrature_order", "samples", "seed"):
        if key in states:
            _require(type(states[key]) is int, f"{key!r} must be an integer, got {states[key]!r}")
    order = states.get("quadrature_order", 1)
    _require(order >= 1, "quadrature order must be >= 1")
    _require(order <= QUADRATURE_ORDER_CAP,
             f"quadrature_order {order} exceeds the cap {QUADRATURE_ORDER_CAP}")
    samples, seed = states.get("samples", 1), states.get("seed", 0)
    _require(1 <= samples <= STATE_CAP, f"'samples' must lie in [1, {STATE_CAP}], got {samples}")
    _require(seed >= 0, f"'seed' must be at least 0, got {seed}")
    if model == "explicit":
        _require("weights" in states, "explicit state model needs 'weights'")
        variables = states.get("variables") or {}
        _require(isinstance(variables, dict), "explicit state 'variables' must be a mapping")
    else:
        _require(
            isinstance(states.get("variables"), list) and states["variables"],
            "gaussian state model needs a list of variable names",
        )
        has_cov = "cov" in states
        has_corr = "std" in states and "corr" in states
        _require(has_cov or has_corr, "gaussian model needs 'cov' or 'std'+'corr'")
        _require(not {"samples", "quadrature_order"} <= states.keys(),
                 "'samples' and 'quadrature_order' exclude each other")
        _require(("samples" in states) == ("seed" in states),
                 "'samples' and 'seed' come together: give both, or --samples and --seed")
        repair = states.get("covariance_repair", "none")
        _require(repair in ("none", "clip"),
                 f"covariance_repair must be none or clip, got {repair!r}")
        d = len(states["variables"])
        for key, shape in (("cov", (d, d)), ("std", (d,)), ("corr", (d, d)), ("mean", (d,))):
            if key in states:
                _require(_finite(states[key]), f"gaussian {key!r} must be finite numbers")
                got = np.shape(states[key])
                _require(got == shape,
                         f"gaussian {key!r} must have shape {shape} for {d} variables, got {got}")
    agents = doc.get("agents")
    _require(isinstance(agents, list) and len(agents) >= 2, "need at least 2 agents")
    for k, a in enumerate(agents):
        _require(isinstance(a, dict) and "delta" in a, f"agent {k} needs 'delta'")
        _known(a, ("delta", "beliefs"), f"agent {k}")
        delta = _number(a["delta"], f"agent {k} delta")
        _require(DELTA_MIN <= delta <= DELTA_MAX,
                 f"agent {k} delta must lie in [{DELTA_MIN}, {DELTA_MAX}], got {delta!r}")
        _check_beliefs(a.get("beliefs", {}), f"agent {k} beliefs")
    limits = doc.get("limits")
    if limits is not None:
        _require(isinstance(limits, dict), "'limits' must be a mapping")
        limits = dict(limits)
        mode = limits.setdefault("mode", "one-agent")
        _require(mode in ("one-agent", "both"), f"limits mode {mode!r} is not one-agent or both")
        keys = ("mode", "deltas") + ("xi0", "xi1", "lambda0") * (mode == "both")
        _known(limits, keys, f"limits in mode {mode!r}")
        shares = (1.0,)  # the agent tolerances each delta implies, as shares of it
        if mode == "both":
            _require("xi0" in limits and "xi1" in limits, "limits mode 'both' needs 'xi0', 'xi1'")
            lam = limits["lambda0"] = _number(limits.get("lambda0", 0.5), "limits lambda0")
            _require(0.0 < lam < 1.0, f"limits lambda0 must lie in (0, 1), got {lam!r}")
            shares = (lam, 1.0 - lam)
        deltas = limits.get("deltas")
        if deltas is None:
            deltas = [1e2, 1e3, 1e4, 1e5]
        _require(isinstance(deltas, list) and deltas,
                 f"limits deltas must be a list, got {deltas!r}")
        limits["deltas"] = [_number(d, "limits delta") for d in deltas]
        for d in limits["deltas"]:
            ok = all(DELTA_MIN <= share * d <= DELTA_MAX for share in shares)
            _require(ok, f"limits delta {d!r} puts a risk tolerance outside "
                         f"[{DELTA_MIN}, {DELTA_MAX}]")
        grid = limits["deltas"]
        _require(all(a < b for a, b in zip(grid, grid[1:])),
                 f"limits deltas must increase strictly, got {grid!r}")
    return Scenario(
        name=name,
        states=dict(states),
        agents=tuple(dict(a) for a in agents),
        limits=limits,
    )


def _allowed(node, names) -> bool:
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Constant):
        return type(node.value) in (int, float)
    if isinstance(node, ast.Call):
        func = node.func
        return isinstance(func, ast.Name) and func.id in _EXPR_NAMESPACE and not node.keywords
    return isinstance(node, _EXPR_NODES)


def _evaluate(expr, variables: dict, n_states: int, later=()) -> np.ndarray | None:
    """Evaluate a scalar-or-vector expression over the named state variables.

    An expression is arithmetic and comparisons over the state variables,
    the names in ``_EXPR_NAMESPACE`` and numeric literals, with positional
    calls of the functions there; anything else is a :class:`ValidationError`
    before evaluation.  Literals become floats, so an overflow raises
    instead of growing an integer without bound.  A result that is not
    finite on every state, such as ``log(X)`` where ``X <= 0``, is refused
    too; ``where`` may select around such values.  ``later`` names values
    that exist only after a solve: an expression reading one of them is
    checked this far, without evaluation, and gives None.
    """
    if isinstance(expr, (int, float)):
        out = np.full(n_states, float(expr))
    elif isinstance(expr, list):
        out = np.asarray(expr, dtype=float)
        if out.size != n_states:
            raise ValidationError(f"literal list has {out.size} values, need {n_states}")
    else:
        ns = dict(_EXPR_NAMESPACE)
        ns.update({name: rv.values for name, rv in variables.items()})
        try:
            tree = ast.parse(str(expr), mode="eval")
            names = ns.keys() | set(later)
            for node in ast.walk(tree):
                if not _allowed(node, names):
                    raise ValueError(f"{ast.unparse(node) or type(node).__name__!r} is not allowed")
                if isinstance(node, ast.Constant):
                    node.value = float(node.value)
            if any(isinstance(node, ast.Name) and node.id in later for node in ast.walk(tree)):
                return None
            code = compile(tree, "<expression>", "eval")
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                out = eval(code, {"__builtins__": {}}, ns)  # noqa: S307
            out = np.broadcast_to(np.asarray(out, dtype=float), (n_states,)).astype(float)
        except Exception as exc:
            raise ValidationError(f"cannot evaluate expression {expr!r}: {exc}") from exc
    if not np.isfinite(out).all():
        raise ValidationError(f"expression {expr!r} is not finite on every state")
    return out


def _repair_covariance(cov: np.ndarray, mode: str):
    """Symmetrise and, when allowed, project onto the PSD cone.

    Returns ``(factor, info)`` where ``factor @ factor.T`` is the covariance
    actually used and near-null directions have been dropped from the
    factor's columns.
    """
    sym = 0.5 * (cov + cov.T)
    evals, evecs = np.linalg.eigh(sym)
    top = float(max(evals.max(), 0.0))
    if top == 0.0:
        raise ValidationError("covariance has no positive direction")
    deficit = float(max(0.0, -evals.min()) / top)
    if deficit > 0:
        if mode != "clip":
            raise ValidationError(
                f"covariance is not positive semi-definite (relative deficit {deficit:.2e}); "
                "set covariance_repair: clip to project onto the nearest PSD cone"
            )
        if deficit > PSD_CLIP_LIMIT:
            raise ValidationError(
                f"covariance repair refuses a relative eigenvalue deficit of {deficit:.2e}"
            )
    clipped = np.clip(evals, 0.0, None)
    keep = clipped > 1e-12 * top
    factor = evecs[:, keep] * np.sqrt(clipped[keep])
    adjustment = float(np.max(np.abs(factor @ factor.T - sym)))
    info = {
        "effective_dims": int(keep.sum()),
        "eigenvalue_deficit": deficit,
        "covariance_adjustment": adjustment,
    }
    return factor, info


def gauss_hermite_rule(order: int):
    """Nodes and weights integrating against the standard normal density."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    return nodes * math.sqrt(2.0), weights / math.sqrt(math.pi)


def build_state_space(scenario: Scenario):
    """Construct the finite state space and its named random variables.

    Deterministic given the scenario: Gauss-Hermite tensor grids for
    quadrature, a seeded generator for sampling, passthrough for explicit
    states.  Returns ``(space, variables, info)``.  Validation checks the
    document; the grid cap and the covariance repair need computed values, so
    only they refuse here.
    """
    states = scenario.states
    if states["model"] == "explicit":
        weights = np.asarray(states["weights"], dtype=float)
        space = StateSpace(weights, labels=states.get("labels"))
        variables = {
            str(name): RandomVariable(space, _evaluate(vals, {}, space.n_states))
            for name, vals in (states.get("variables") or {}).items()
        }
        return space, variables, {"model": "explicit", "n_states": space.n_states}

    names = [str(v) for v in states["variables"]]
    if "cov" in states:
        cov = np.asarray(states["cov"], dtype=float)
    else:
        std = np.asarray(states["std"], dtype=float)
        corr = np.asarray(states["corr"], dtype=float)
        cov = corr * np.outer(std, std)
    mean = np.asarray(states.get("mean", np.zeros(len(names))), dtype=float)
    factor, info = _repair_covariance(cov, states.get("covariance_repair", "none"))
    d_eff = factor.shape[1]

    if "samples" in states:
        n = states["samples"]
        rng = np.random.default_rng(states["seed"])
        z = rng.standard_normal((d_eff, n))
        weights = np.full(n, 1.0 / n)
        info.update({"model": "gaussian-mc", "seed": states["seed"], "n_states": n})
    else:
        order = states.get("quadrature_order", 20)
        if order**d_eff > STATE_CAP:
            raise ValidationError(
                f"quadrature grid of {order}^{d_eff} states exceeds the cap {STATE_CAP}"
            )
        nodes, wts = gauss_hermite_rule(order)
        grids = np.meshgrid(*([nodes] * d_eff), indexing="ij")
        z = np.stack([g.ravel() for g in grids])
        weights = wts
        for _ in range(d_eff - 1):
            weights = np.multiply.outer(weights, wts).ravel()
        info.update(
            {"model": "gaussian-quadrature", "quadrature_order": order, "n_states": z.shape[1]}
        )

    x = mean[:, None] + factor @ z
    space = StateSpace(weights)
    variables = {name: RandomVariable(space, x[k]) for k, name in enumerate(names)}
    return space, variables, info


def build_market(scenario: Scenario):
    """Construct the market from a scenario; returns ``(market, variables, info)``.

    Data that the state space, measure, agent or market constructors
    refuse is a :class:`ValidationError`.
    """
    try:
        return _build_market(scenario)
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"scenario {scenario.name!r}: {exc}") from exc


def _build_market(scenario: Scenario):
    space, variables, info = build_state_space(scenario)
    base = space.baseline()

    def beliefs(spec: dict, delta: float, where: str) -> Measure:
        """The measure ``spec`` states; one that the measure refuses names ``where``."""
        try:
            if "weights" in spec:
                return Measure(space, np.asarray(spec["weights"], dtype=float))
            if "endowment" in spec:
                endow = _evaluate(spec["endowment"], variables, space.n_states)
                actual = spec.get("actual")
                actual = base if actual is None else beliefs(actual, delta, f"{where}.actual")
                return endowment_to_beliefs(actual, RandomVariable(space, endow), delta).beliefs
            tilt = _evaluate(spec.get("log_density", 0.0), variables, space.n_states)
            return normalize_log_density(base, tilt)
        except (ContractError, DimensionError) as exc:
            raise ValidationError(f"{where}: {exc}") from exc

    specs = [(float(a["delta"]), a.get("beliefs") or {}) for a in scenario.agents]
    agents = [Agent(d, beliefs(s, d, f"agents.{k}.beliefs")) for k, (d, s) in enumerate(specs)]
    return Market(agents), variables, info


BUILTIN_SCENARIOS: dict = {
    "example-2.7": {
        "name": "example-2.7",
        "states": {
            "model": "gaussian",
            "variables": ["E0", "E1"],
            "std": [1.0, 1.0],
            "corr": [[1.0, -0.5], [-0.5, 1.0]],
            "quadrature_order": 64,
        },
        "agents": [
            {"delta": 1.0, "beliefs": {"endowment": "E0"}},
            {"delta": 1.0, "beliefs": {"endowment": "E1"}},
        ],
    },
    "beta-symmetric": {
        "name": "beta-symmetric",
        "states": {
            "model": "gaussian",
            "variables": ["X"],
            "std": [1.0],
            "corr": [[1.0]],
            "quadrature_order": 64,
        },
        "agents": [
            {"delta": 1.0, "beliefs": {"log_density": "X"}},
            {"delta": 1.0, "beliefs": {"log_density": "-X"}},
        ],
    },
    # The correlation matrix below is not positive semi-definite (determinant
    # -0.012, least eigenvalue -0.0074), so no Gaussian market has exactly
    # this data: it is solved after the `clip` repair, on 2 effective
    # dimensions.
    "example-3.9": {
        "name": "example-3.9",
        "states": {
            "model": "gaussian",
            "variables": ["X0", "X1", "X2"],
            "std": [0.4, 2.7, 1.1],
            "corr": [
                [1.0, -0.9, 0.7],
                [-0.9, 1.0, -0.3],
                [0.7, -0.3, 1.0],
            ],
            "quadrature_order": 40,
            "covariance_repair": "clip",
        },
        "agents": [
            {"delta": 1.0, "beliefs": {"log_density": "X0"}},
            {"delta": 1.0, "beliefs": {"log_density": "X1"}},
            {"delta": 1.0, "beliefs": {"log_density": "X2"}},
        ],
    },
    "limit-one-agent": {
        "name": "limit-one-agent",
        "states": {
            "model": "explicit",
            "weights": [0.6, 0.4],
            "labels": ["up", "down"],
        },
        "agents": [
            {"delta": 1.0, "beliefs": {"weights": [0.6, 0.4]}},
            {"delta": 1.0, "beliefs": {"weights": [0.5, 0.5]}},
        ],
        "limits": {"mode": "one-agent", "deltas": [1e2, 1e3, 1e4, 1e5]},
    },
    "limit-both": {
        "name": "limit-both",
        "states": {
            "model": "explicit",
            "weights": [0.5, 0.5],
            "variables": {"XI0": [1.0, -1.0], "XI1": [-1.0, 1.0]},
        },
        "agents": [
            {"delta": 5.0, "beliefs": {"log_density": "XI0 / 5.0"}},
            {"delta": 5.0, "beliefs": {"log_density": "XI1 / 5.0"}},
        ],
        "limits": {
            "mode": "both",
            "xi0": "XI0",
            "xi1": "XI1",
            "lambda0": 0.5,
            "deltas": [10.0, 100.0, 1000.0, 10000.0],
        },
    },
}
