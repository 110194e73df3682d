"""Seeded random problem families, recovery metrics, and JSON persistence.

``generate(spec)`` builds the instance a GenSpec describes, with one
private generator per constraint family:

* robust_cs: Gaussian matrix with unit columns, sparse Gaussian signal, a
  handful of gross outliers plus small Gaussian noise; solved under the
  sparse-outlier (RobustCS) constraint.
* cauchy: same matrix/signal recipe, Cauchy measurement noise via the
  inverse-CDF transform; solved under the Lorentzian constraint.
* badly_scaled: cosine rows with random frequencies (columns are
  deliberately not normalized) and signal magnitudes spread over D decades;
  solved under the least-squares constraint.

Randomness is split into named substreams (matrix / support / values /
noise) so each component draws an independent, order-insensitive stream
from the single 64-bit seed. Instances regenerate bit-for-bit from
(family, params, seed) on the same numpy build at the same BLAS thread
count: b is a BLAS product, whose last bits can change with that count.

The generators, and ``instance_from_dict``, build each matrix in an array
of their own, freeze it and hand it to ``SensingMatrix``, which adopts it
without a copy: the model's ``A.entries`` is that array.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .models import (
    ConstraintModel,
    LeastSquares,
    Lorentzian,
    RobustCS,
    SensingMatrix,
    _as_number,
    _as_vector,
    _float_array,
    lorentzian_norm,
)

__all__ = [
    "GenSpec",
    "ProblemInstance",
    "generate",
    "rec_err",
    "save_instance",
    "load_instance",
    "instance_to_dict",
    "instance_from_dict",
    "save_result",
    "load_result",
]

FORMAT_VERSION = 1

FAMILY_ROBUST_CS = "robust_cs"
FAMILY_CAUCHY = "cauchy"
FAMILY_BADLY_SCALED = "badly_scaled"
# the parameters each family requires, in CSV column order; GenSpec, generate,
# the bench plans and the CLI flags all read them from here
FAMILY_PARAMS = {
    FAMILY_ROBUST_CS: ("n", "p", "k", "iota"),
    FAMILY_CAUCHY: ("n", "m", "k"),
    FAMILY_BADLY_SCALED: ("n", "m", "k", "F", "D"),
}
FAMILIES = tuple(FAMILY_PARAMS)

# the type of each numeric GenSpec field; each must be positive except
# those in _MAY_BE_ZERO
FIELD_TYPES = {"n": int, "k": int, "seed": int, "m": int, "p": int,
               "iota": int, "F": float, "D": float}
_MAY_BE_ZERO = ("seed", "iota", "D")

# the recipe constants: each budget sigma is _SIGMA_FACTOR times the realized
# noise magnitude, and the cauchy Lorentzian scale is _CAUCHY_GAMMA
_SIGMA_FACTOR = 1.2
_CAUCHY_GAMMA = 0.02
# rows per block of squares in _unit_column_gaussian, which bounds its
# temporary at 64 x n
_NORM_BLOCK_ROWS = 64

# substream ids hashed together with the seed
_STREAM_MATRIX = 0
_STREAM_SUPPORT = 1
_STREAM_VALUES = 2
_STREAM_NOISE = 3

_MAX_RANK_RETRIES = 10


@dataclass(frozen=True)
class GenSpec:
    """Family name, seed and the family's FAMILY_PARAMS: all a generator
    reads, the rest of its recipe being the module's constants.

    Fields not used by a family must stay None, so no spec names a value
    that generate ignores.
    Every numeric field is checked for its type and sign here, and
    integral and real values are stored as int and float, so malformed
    parameters raise ValueError before any instance is drawn; so does a
    spec whose matrix would have more rows (m, or p + iota on robust_cs)
    than columns, which cannot have full row rank.
    """

    family: str
    n: int
    k: int
    seed: int
    m: int | None = None
    p: int | None = None
    iota: int | None = None
    F: float | None = None
    D: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for name, kind in FIELD_TYPES.items():
            value = getattr(self, name)
            if value is None:
                continue
            value = _as_number(value, kind is int, name)
            if value < 0 or (value == 0 and name not in _MAY_BE_ZERO):
                sign = "nonnegative" if name in _MAY_BE_ZERO else "positive"
                raise ValueError(f"{name} must be {sign}, got {value!r}")
            object.__setattr__(self, name, value)
        used = ("seed", *FAMILY_PARAMS[self.family])
        missing = [name for name in used if getattr(self, name) is None]
        if missing:
            raise ValueError(f"{self.family} needs {', '.join(missing)}")
        unused = [name for name in FIELD_TYPES
                  if getattr(self, name) is not None and name not in used]
        if unused:
            raise ValueError(f"{self.family} does not use "
                             f"{', '.join(unused)}")
        if self.k > self.n:
            raise ValueError("k must not exceed n")
        rows = (self.p + self.iota if self.family == FAMILY_ROBUST_CS
                else self.m)
        if rows > self.n:
            raise ValueError(f"the {rows} rows of A must not exceed n = "
                             f"{self.n}")


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    model: ConstraintModel
    x_orig: np.ndarray
    gen_spec: GenSpec
    noise_record: dict


def _rng(seed: int, *stream) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def _unit_column_gaussian(m: int, n: int, seed: int) -> np.ndarray:
    A = _rng(seed, _STREAM_MATRIX).standard_normal((m, n))
    # The squared column norms, summed row by row: the order, and so the
    # bits, of np.linalg.norm(A, axis=0), without its m-by-n temporary.
    # np.add.reduce over axis 0 adds the rows of a block in turn (for
    # n >= 2; a single column, which needs m = 1 anyway, is summed
    # pairwise), and the running sum is added into the first row of each
    # block's squares, so the order holds across blocks.
    sq = None
    for start in range(0, m, _NORM_BLOCK_ROWS):
        block = A[start:start + _NORM_BLOCK_ROWS]
        block = block * block
        if sq is not None:
            block[0] += sq
        sq = np.add.reduce(block, axis=0)
    A /= np.sqrt(sq)
    A.flags.writeable = False
    return A


def _sparse_support(n: int, k: int, seed: int) -> np.ndarray:
    return _rng(seed, _STREAM_SUPPORT).permutation(n)[:k]


def _gaussian_recipe(spec: GenSpec, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m x n unit-column Gaussian matrix and k-sparse Gaussian signal
    shared by the robust_cs and cauchy families."""
    A = _unit_column_gaussian(m, spec.n, spec.seed)
    support = _sparse_support(spec.n, spec.k, spec.seed)
    x_orig = np.zeros(spec.n)
    x_orig[support] = _rng(spec.seed, _STREAM_VALUES).standard_normal(spec.k)
    return A, x_orig


def _robust_cs(spec: GenSpec) -> ProblemInstance:
    """Sparse recovery with iota gross outliers among p + iota measurements.

    b = A x_orig - z + 0.01 eps, where z carries the outliers (magnitude 2,
    random signs, confined to the last iota rows) and eps is standard
    normal. The outlier budget is r = 2 iota and sigma = _SIGMA_FACTOR
    (1.2) * ||0.01 eps||.
    """
    p, iota = spec.p, spec.iota
    m = p + iota
    A, x_orig = _gaussian_recipe(spec, m)

    rng_noise = _rng(spec.seed, _STREAM_NOISE)
    z = np.zeros(m)
    if iota > 0:
        raw = rng_noise.standard_normal(iota)
        z[p:] = 2.0 * np.where(raw < 0, -1.0, 1.0)
    eps = rng_noise.standard_normal(m)
    small = 0.01 * eps
    b = A @ x_orig - z + small
    sigma = _SIGMA_FACTOR * float(np.linalg.norm(small))
    model = RobustCS(SensingMatrix(A), b, sigma, 2 * iota)
    return ProblemInstance(model=model, x_orig=x_orig, gen_spec=spec,
                           noise_record={"z": z, "epsilon": eps})


def _cauchy(spec: GenSpec) -> ProblemInstance:
    """Sparse recovery under heavy-tailed noise: eps_i = tan(pi (u_i - 1/2))
    with u_i uniform on (0, 1), i.e. standard Cauchy. The Lorentzian scale
    is gamma = _CAUCHY_GAMMA (0.02), and the budget is sigma = _SIGMA_FACTOR
    (1.2) times the Lorentzian norm of the realized 0.01 eps."""
    m = spec.m
    A, x_orig = _gaussian_recipe(spec, m)

    rng_noise = _rng(spec.seed, _STREAM_NOISE)
    u = rng_noise.random(m)
    while True:
        bad = (u <= 0.0) | (u >= 1.0)
        if not bad.any():
            break
        u[bad] = rng_noise.random(int(bad.sum()))
    eps = np.tan(np.pi * (u - 0.5))
    small = 0.01 * eps
    b = A @ x_orig + small
    sigma = _SIGMA_FACTOR * lorentzian_norm(small, _CAUCHY_GAMMA)
    model = Lorentzian(SensingMatrix(A), b, sigma, _CAUCHY_GAMMA)
    return ProblemInstance(model=model, x_orig=x_orig, gen_spec=spec,
                           noise_record={"epsilon": eps})


def _badly_scaled(spec: GenSpec) -> ProblemInstance:
    """Cosine rows, unnormalized columns, signal magnitudes across D decades.

    A_{ij} = cos(2 pi w_i j / F) / sqrt(m) with w uniform on [0, 1]^m and
    1-indexed j. Nonzero signal entries are sign * 10^(D * u), and
    b = A x_orig + 0.01 eps with eps standard normal, under the budget
    sigma = _SIGMA_FACTOR (1.2) * ||0.01 eps||. If
    SensingMatrix rejects the drawn matrix as rank deficient, a fresh
    frequency vector is drawn (up to 10 attempts).
    """
    n, m, k, seed = spec.n, spec.m, spec.k, spec.seed
    cols = np.arange(1, n + 1)
    A_mat = None
    w = None
    for attempt in range(_MAX_RANK_RETRIES):
        w = _rng(seed, _STREAM_MATRIX, attempt).random(m)
        A_try = np.cos(2.0 * np.pi * np.outer(w, cols) / spec.F) / np.sqrt(m)
        A_try.flags.writeable = False
        try:
            A_mat = SensingMatrix(A_try)
            break
        except ValueError:
            pass  # GenSpec keeps m <= n, so the rejection is on rank alone
    if A_mat is None:
        raise RuntimeError(
            f"could not draw a full-rank cosine matrix in {_MAX_RANK_RETRIES} attempts"
        )

    support = _sparse_support(n, k, seed)
    rng_values = _rng(seed, _STREAM_VALUES)
    signs = np.where(rng_values.standard_normal(k) < 0, -1.0, 1.0)
    mags = 10.0 ** (spec.D * rng_values.random(k))
    x_orig = np.zeros(n)
    x_orig[support] = signs * mags

    eps = _rng(seed, _STREAM_NOISE).standard_normal(m)
    small = 0.01 * eps
    b = A_mat.entries @ x_orig + small
    sigma = _SIGMA_FACTOR * float(np.linalg.norm(small))
    model = LeastSquares(A_mat, b, sigma)
    return ProblemInstance(model=model, x_orig=x_orig, gen_spec=spec,
                           noise_record={"epsilon": eps, "w": w})


_GENERATORS = {
    FAMILY_ROBUST_CS: _robust_cs,
    FAMILY_CAUCHY: _cauchy,
    FAMILY_BADLY_SCALED: _badly_scaled,
}


def generate(spec: GenSpec) -> ProblemInstance:
    """Build the instance a GenSpec describes; its gen_spec is spec itself."""
    return _GENERATORS[spec.family](spec)


def rec_err(x_out, x_orig) -> float:
    """||x_out - x_orig|| / max(1, ||x_orig||)."""
    x_out = np.asarray(x_out, dtype=float)
    x_orig = np.asarray(x_orig, dtype=float)
    if x_out.shape != x_orig.shape:
        raise ValueError("x_out and x_orig must have the same shape")
    return float(np.linalg.norm(x_out - x_orig) /
                 max(1.0, float(np.linalg.norm(x_orig))))


# ---------------------------------------------------------------------------
# persistence

# A model is stored as its variant name, sigma, and the fields its class adds
# to (A, b, sigma), which are also its remaining constructor arguments.
_MODEL_VARIANTS = {cls.variant: cls
                   for cls in (LeastSquares, Lorentzian, RobustCS)}


def _model_params(model: ConstraintModel) -> dict:
    return {"variant": model.variant, "sigma": model.sigma,
            **{name: getattr(model, name) for name in model.__slots__}}


def _model_from_params(params, A: SensingMatrix, b) -> ConstraintModel:
    variant = _json_object(params, "model").get("variant")
    cls = _MODEL_VARIANTS.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise ValueError(f"unknown model variant {variant!r}")
    names = ("sigma", *cls.__slots__)
    _json_object(params, f"{variant} model", {"variant", *names})
    return cls(A, b, *(params[name] for name in names))


def _json_object(doc, what: str, known: set | None = None) -> dict:
    """doc itself, checked to be a JSON object with no key outside known
    (any key where known is None)."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got "
                         f"{type(doc).__name__}")
    unknown = doc.keys() - known if known is not None else ()
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")
    return doc


def instance_to_dict(inst: ProblemInstance) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "gen_spec": asdict(inst.gen_spec),
        "matrix": inst.model.A.entries.tolist(),
        "b": inst.model.b.tolist(),
        "x_orig": inst.x_orig.tolist(),
        "model": _model_params(inst.model),
        "noise_record": {k: np.asarray(v).tolist()
                         for k, v in inst.noise_record.items()},
    }


def instance_from_dict(doc: dict) -> ProblemInstance:
    version = _json_object(doc, "instance").get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}")
    entries = _float_array(doc["matrix"], "matrix")
    entries.flags.writeable = False
    A = SensingMatrix(entries)
    # the model's constructor reads b through models._as_vector
    model = _model_from_params(doc["model"], A, doc["b"])
    x_orig = _as_vector(doc["x_orig"], A.n, "x_orig")
    # a file written when GenSpec had more fields fails here, naming them
    spec = GenSpec(**_json_object(doc["gen_spec"], "gen_spec",
                                  {f.name for f in fields(GenSpec)}))
    noise = {k: _as_vector(v, None, f"noise_record[{k!r}]")
             for k, v in _json_object(doc["noise_record"],
                                      "noise_record").items()}
    return ProblemInstance(model=model, x_orig=x_orig, gen_spec=spec,
                           noise_record=noise)


def _write_json(path, doc: dict):
    # json's float repr is the shortest round-trip decimal, so numeric
    # fields survive a save/load cycle bit for bit; NaN and inf, which are
    # not JSON, raise ValueError instead of being written as bare tokens
    Path(path).write_text(json.dumps(doc, allow_nan=False), encoding="utf-8")


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def _read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"),
                      parse_constant=_reject_constant)


def save_instance(inst: ProblemInstance, path):
    _write_json(path, instance_to_dict(inst))


def load_instance(path) -> ProblemInstance:
    return instance_from_dict(_read_json(path))


def save_result(payload: dict, path):
    """Persist a solve result envelope.

    The payload must carry run_config, status and metrics; x_final and the
    optional trace ride along for later verification.
    """
    missing = {"run_config", "status", "metrics"} - payload.keys()
    if missing:
        raise ValueError(f"result payload missing fields: {sorted(missing)}")
    doc = {"format_version": FORMAT_VERSION, **payload}
    _write_json(path, doc)


def load_result(path) -> dict:
    doc = _read_json(path)
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}")
    return doc
