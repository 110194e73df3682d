"""Seeded generators, recovery metrics, and file round-trips."""

import hashlib
import math

import numpy as np
import pytest

from sparseratio.instances import (
    _STREAM_MATRIX,
    GenSpec,
    _model_params,
    _rng,
    _unit_column_gaussian,
    generate,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_result,
    rec_err,
    save_instance,
    save_result,
)
from sparseratio.models import LeastSquares, Lorentzian, RobustCS, lorentzian_norm, q_value
from sparseratio.subsolvers import least_norm_solution


def instances_equal(a, b) -> bool:
    if a.gen_spec != b.gen_spec:
        return False
    if not np.array_equal(a.model.A.entries, b.model.A.entries):
        return False
    if not np.array_equal(a.model.b, b.model.b):
        return False
    if not np.array_equal(a.x_orig, b.x_orig):
        return False
    if a.noise_record.keys() != b.noise_record.keys():
        return False
    return all(np.array_equal(a.noise_record[k], b.noise_record[k])
               for k in a.noise_record)


class TestGenRobustCS:
    def test_reference_instance_shape(self):
        inst = generate(GenSpec(family="robust_cs", n=512, p=144, k=16, iota=2,
                                seed=1))
        A = inst.model.A
        assert (A.m, A.n) == (146, 512)
        np.testing.assert_allclose(np.linalg.norm(A.entries, axis=0), 1.0, atol=1e-12)
        assert np.count_nonzero(inst.x_orig) == 16
        z = inst.noise_record["z"]
        np.testing.assert_array_equal(z[:144], np.zeros(144))
        assert set(np.abs(z[144:])) == {2.0}
        assert isinstance(inst.model, RobustCS)
        assert inst.model.r == 4

    def test_measurement_identity(self):
        inst = generate(GenSpec(family="robust_cs", n=64, p=20, k=4, iota=2,
                                seed=5))
        z = inst.noise_record["z"]
        eps = inst.noise_record["epsilon"]
        expected = inst.model.A.entries @ inst.x_orig - z + 0.01 * eps
        np.testing.assert_array_equal(inst.model.b, expected)
        assert inst.model.sigma == 1.2 * np.linalg.norm(0.01 * eps)

    def test_zero_outliers_reduce_to_least_squares(self):
        inst = generate(GenSpec(family="robust_cs", n=64, p=20, k=4, iota=0,
                                seed=5))
        assert inst.model.r == 0
        np.testing.assert_array_equal(inst.noise_record["z"], np.zeros(20))
        x = np.random.default_rng(0).standard_normal(64)
        res = inst.model.A.entries @ x - inst.model.b
        direct = float(res @ res) - inst.model.sigma**2
        assert q_value(inst.model, x) == pytest.approx(direct, rel=1e-12)

    def test_ground_truth_feasible(self):
        inst = generate(GenSpec(family="robust_cs", n=128, p=40, k=8, iota=3,
                                seed=9))
        assert q_value(inst.model, inst.x_orig) <= 0.0

    @pytest.mark.parametrize("m, n, seed", [(146, 512, 1), (730, 2560, 0)])
    def test_matrix_matches_out_of_place_normalization(self, m, n, seed):
        # the in-place division pins the bits the generator had when it
        # divided into a new array, so saved seeds regenerate unchanged
        raw = _rng(seed, _STREAM_MATRIX).standard_normal((m, n))
        expected = raw / np.linalg.norm(raw, axis=0)
        A = _unit_column_gaussian(m, n, seed)
        assert A.tobytes() == expected.tobytes() and not A.flags.writeable

    def test_bitwise_determinism(self):
        a = generate(GenSpec(family="robust_cs", n=64, p=20, k=4, iota=2,
                             seed=11))
        b = generate(GenSpec(family="robust_cs", n=64, p=20, k=4, iota=2,
                             seed=11))
        assert instances_equal(a, b)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            generate(GenSpec(family="robust_cs", n=8, p=0, k=2, iota=1,
                             seed=0))
        with pytest.raises(ValueError):
            generate(GenSpec(family="robust_cs", n=8, p=4, k=2, iota=-1,
                             seed=0))
        with pytest.raises(ValueError):
            generate(GenSpec(family="robust_cs", n=8, p=4, k=9, iota=1,
                             seed=0))


class TestGenCauchy:
    def test_reference_instance(self):
        inst = generate(GenSpec(family="cauchy", n=512, m=144, k=16, seed=1))
        assert isinstance(inst.model, Lorentzian)
        assert inst.model.gamma == 0.02
        assert inst.model.sigma > 0
        np.testing.assert_allclose(
            np.linalg.norm(inst.model.A.entries, axis=0), 1.0, atol=1e-12
        )

    def test_ground_truth_residual_identity(self):
        # q(x_orig) = ||0.01 eps|| - sigma = -sigma/6 since sigma is 1.2x
        inst = generate(GenSpec(family="cauchy", n=64, m=24, k=4, seed=7))
        got = q_value(inst.model, inst.x_orig)
        assert got == pytest.approx(-inst.model.sigma / 6.0, rel=1e-9)
        assert got < 0

    def test_noise_matches_inverse_cdf_transform(self):
        inst = generate(GenSpec(family="cauchy", n=64, m=24, k=4, seed=7))
        eps = inst.noise_record["epsilon"]
        norm = lorentzian_norm(0.01 * eps, inst.model.gamma)
        assert inst.model.sigma == pytest.approx(1.2 * norm, rel=1e-15)
        expected = inst.model.A.entries @ inst.x_orig + 0.01 * eps
        np.testing.assert_array_equal(inst.model.b, expected)

    def test_bitwise_determinism(self):
        assert instances_equal(
            generate(GenSpec(family="cauchy", n=64, m=24, k=4, seed=3)),
            generate(GenSpec(family="cauchy", n=64, m=24, k=4, seed=3)),
        )


class TestGenBadlyScaled:
    def test_reference_instance_magnitudes(self):
        inst = generate(GenSpec(family="badly_scaled", n=1024, m=64, k=8,
                                F=5.0, D=2.0, seed=1))
        mags = np.abs(inst.x_orig[inst.x_orig != 0])
        assert mags.size == 8
        assert np.all(mags >= 1.0) and np.all(mags <= 100.0)
        assert isinstance(inst.model, LeastSquares)

    def test_zero_decades_gives_unit_magnitudes(self):
        inst = generate(GenSpec(family="badly_scaled", n=128, m=32, k=4, F=5.0,
                                D=0.0, seed=2))
        mags = np.abs(inst.x_orig[inst.x_orig != 0])
        np.testing.assert_array_equal(mags, np.ones(4))

    def test_entries_formula(self):
        inst = generate(GenSpec(family="badly_scaled", n=64, m=16, k=4, F=5.0,
                                D=1.0, seed=4))
        w = inst.noise_record["w"]
        cols = np.arange(1, 65)
        expected = np.cos(2.0 * np.pi * np.outer(w, cols) / 5.0) / np.sqrt(16)
        np.testing.assert_array_equal(inst.model.A.entries, expected)

    def test_ground_truth_feasible(self):
        inst = generate(GenSpec(family="badly_scaled", n=128, m=32, k=4, F=5.0,
                                D=3.0, seed=6))
        assert q_value(inst.model, inst.x_orig) <= 0.0

    def test_bitwise_determinism(self):
        assert instances_equal(
            generate(GenSpec(family="badly_scaled", n=64, m=16, k=4, F=5.0,
                             D=2.0, seed=8)),
            generate(GenSpec(family="badly_scaled", n=64, m=16, k=4, F=5.0,
                             D=2.0, seed=8)),
        )


class TestSeedSeparation:
    def test_different_seeds_differ(self):
        for s in range(10):
            a = generate(GenSpec(family="cauchy", n=32, m=12, k=3, seed=s))
            b = generate(GenSpec(family="cauchy", n=32, m=12, k=3,
                                 seed=s + 1000))
            assert not np.array_equal(
                a.noise_record["epsilon"], b.noise_record["epsilon"]
            )


# one spec per family, and the sha256 of its instance's A, b, x_orig,
# noise record and model parameters as the generators built them at commit
# 767ff8d (numpy 2.4.6), before they took a GenSpec
_REFERENCE_DIGESTS = [
    (GenSpec(family="robust_cs", n=64, p=24, k=4, iota=4, seed=7),
     "303865828be3d5d14313c021258e756917f9db0ae20c4fb0c61ee0cb33e8c501"),
    (GenSpec(family="cauchy", n=48, m=20, k=3, seed=5),
     "ebe204a2479f43a6bb783bd974e2c47a1c8c338d240f90ade24b76677943f238"),
    (GenSpec(family="badly_scaled", n=64, m=16, k=3, F=5.0, D=2.0, seed=3),
     "f597169ad692787e6a441f36ee57f426642b02cc6208fdc70065235963367a4b"),
]


def instance_digest(inst) -> str:
    h = hashlib.sha256()
    for arr in (inst.model.A.entries, inst.model.b, inst.x_orig):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    for key in sorted(inst.noise_record):
        h.update(key.encode())
        h.update(np.ascontiguousarray(inst.noise_record[key],
                                      dtype="<f8").tobytes())
    h.update(repr(sorted(_model_params(inst.model).items())).encode())
    return h.hexdigest()


class TestGenerateDispatch:
    @pytest.mark.parametrize(
        "spec, digest", _REFERENCE_DIGESTS,
        ids=[spec.family for spec, _ in _REFERENCE_DIGESTS])
    def test_instance_is_its_spec_and_reference_bits(self, spec, digest):
        inst = generate(spec)
        assert inst.gen_spec == spec
        assert instance_digest(inst) == digest

    def test_spec_fills_in_gamma_on_cauchy_only(self):
        cauchy = GenSpec(family="cauchy", n=32, m=12, k=3, seed=5)
        assert cauchy == GenSpec(family="cauchy", n=32, m=12, k=3, seed=5,
                                 gamma=0.02)
        bad = GenSpec(family="badly_scaled", n=32, m=12, k=3, F=5.0, D=1.0,
                      seed=5)
        assert bad.gamma is None and bad.r is None

    def test_round_trips_gen_spec(self):
        originals = [
            generate(GenSpec(family="robust_cs", n=64, p=20, k=4, iota=2,
                             seed=12)),
            generate(GenSpec(family="cauchy", n=64, m=24, k=4, seed=12)),
            generate(GenSpec(family="badly_scaled", n=64, m=16, k=4, F=5.0,
                             D=2.0, seed=12)),
        ]
        for inst in originals:
            again = generate(inst.gen_spec)
            assert instances_equal(inst, again)

    def test_gen_spec_validation(self):
        with pytest.raises(ValueError):
            GenSpec(family="mystery", n=8, k=2, seed=0)
        with pytest.raises(ValueError):
            GenSpec(family="cauchy", n=8, k=9, seed=0, m=4)
        with pytest.raises(ValueError):
            GenSpec(family="cauchy", n=8, k=2, seed=0)  # missing m
        with pytest.raises(ValueError):
            GenSpec(family="robust_cs", n=8, k=2, seed=0, p=4)  # missing iota
        with pytest.raises(ValueError):
            GenSpec(family="badly_scaled", n=8, k=2, seed=0, m=4, F=5.0)  # missing D
        with pytest.raises(ValueError):
            GenSpec(family="cauchy", n=8, k=2, seed=-1, m=4)
        # malformed types, as a hand-written bench plan may carry them
        for bad in ({"n": "64"}, {"n": 64.0}, {"n": True}, {"k": 3.5},
                    {"m": None}, {"seed": 1.0},
                    {"gamma": float("inf")}, {"gamma": "0.02"},
                    {"sigma_factor": float("nan")}, {"sigma_factor": True},
                    {"sigma_factor": 0.0}, {"gamma": -1.0}):
            with pytest.raises(ValueError):
                GenSpec(**{"family": "cauchy", "n": 8, "k": 2, "seed": 0,
                           "m": 4, **bad})
        with pytest.raises(ValueError):
            GenSpec(family="badly_scaled", n=8, k=2, seed=0, m=4, F=5.0,
                    D=float("-inf"))
        with pytest.raises(ValueError):
            GenSpec(family="robust_cs", n=8, k=2, seed=0, p=4, iota=1,
                    gamma=0.02)
        spec = GenSpec(family="badly_scaled", n=np.int64(8), k=2, seed=0,
                       m=4, F=5, D=0)
        assert type(spec.n) is int and type(spec.F) is float

    def test_gen_spec_r_is_twice_iota_on_robust_cs_only(self):
        base = {"n": 8, "k": 2, "seed": 0}
        robust = {"family": "robust_cs", "p": 4, "iota": 2, **base}
        for bad in ({**robust, "r": 7}, {**robust, "r": 2},
                    {**robust, "iota": 0, "r": 1},
                    {"family": "cauchy", "m": 4, "r": 0, **base},
                    {"family": "badly_scaled", "m": 4, "F": 5.0, "D": 1.0,
                     "r": 4, **base}):
            with pytest.raises(ValueError, match="r applies only"):
                GenSpec(**bad)
        assert GenSpec(**robust, r=np.int64(4)).r == 4
        assert GenSpec(**{**robust, "iota": 0}, r=0).r == 0
        assert GenSpec(**robust).r == 4
        inst = generate(GenSpec(family="robust_cs", n=64, p=20, k=4, iota=3,
                                seed=5))
        assert inst.gen_spec.r == inst.model.r == 6


    @pytest.mark.parametrize("family, params", [
        ("robust_cs", {"p": 6, "iota": 3}),
        ("cauchy", {"m": 9}),
        ("badly_scaled", {"m": 9, "F": 5.0, "D": 1.0}),
    ])
    def test_gen_spec_rejects_more_rows_than_columns(self, family, params):
        # A must have full row rank, which no matrix with more rows than
        # columns has, so the spec fails before anything is drawn; a
        # square A is allowed
        with pytest.raises(ValueError,
                           match="the 9 rows of A must not exceed n = 8"):
            GenSpec(family=family, n=8, k=2, seed=0, **params)
        assert GenSpec(family=family, n=9, k=2, seed=0, **params).n == 9


class TestMetrics:
    def test_rec_err_cases(self):
        x = np.array([2.0, 0.0])
        assert rec_err(x, x) == 0.0
        assert rec_err(np.zeros(2), x) == pytest.approx(1.0)
        half = np.array([0.5, 0.0])
        assert rec_err(np.zeros(2), half) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            rec_err(np.zeros(3), x)

    def test_q_is_minus_sigma_sq_at_least_norm(self):
        inst = generate(GenSpec(family="badly_scaled", n=64, m=16, k=4, F=5.0,
                                D=1.0, seed=3))
        x_ln = least_norm_solution(inst.model.A, inst.model.b)
        got = q_value(inst.model, x_ln)
        assert got == pytest.approx(-inst.model.sigma**2, rel=1e-9)


class TestPersistence:
    @pytest.mark.parametrize("maker", [
        lambda: generate(GenSpec(family="robust_cs", n=48, p=16, k=3, iota=2,
                                 seed=21)),
        lambda: generate(GenSpec(family="cauchy", n=48, m=16, k=3, seed=21)),
        lambda: generate(GenSpec(family="badly_scaled", n=48, m=12, k=3, F=5.0,
                                 D=2.0, seed=21)),
    ])
    def test_instance_round_trip_bitwise(self, maker, tmp_path):
        inst = maker()
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        again = load_instance(path)
        assert instances_equal(inst, again)
        assert again.model.sigma == inst.model.sigma

    def test_dict_round_trip(self):
        inst = generate(GenSpec(family="cauchy", n=32, m=12, k=3, seed=5))
        again = instance_from_dict(instance_to_dict(inst))
        assert instances_equal(inst, again)

    def test_unknown_format_version_rejected(self):
        doc = instance_to_dict(generate(GenSpec(family="cauchy", n=32, m=12,
                                                k=3, seed=5)))
        doc["format_version"] = 99
        with pytest.raises(ValueError):
            instance_from_dict(doc)

    def test_result_round_trip_and_validation(self, tmp_path):
        payload = {
            "run_config": {"tol": 1e-6},
            "status": "converged",
            "metrics": {"rec_err": 0.01, "residual": -1e-10},
            "x_final": [0.0, 1.5],
        }
        path = tmp_path / "result.json"
        save_result(payload, path)
        doc = load_result(path)
        assert doc["status"] == "converged"
        assert doc["metrics"]["rec_err"] == 0.01
        assert doc["x_final"] == [0.0, 1.5]
        with pytest.raises(ValueError):
            save_result({"status": "converged"}, tmp_path / "bad.json")

    def test_load_result_rejects_other_versions(self, tmp_path):
        path = tmp_path / "result.json"
        save_result(
            {"run_config": {}, "status": "converged", "metrics": {}}, path
        )
        doc = path.read_text().replace('"format_version": 1', '"format_version": 3')
        path.write_text(doc)
        with pytest.raises(ValueError):
            load_result(path)

    @pytest.mark.parametrize("field, value", [
        ("x_orig", math.nan),
        ("x_orig", math.inf),
        ("epsilon", -math.inf),
        ("epsilon", math.nan),
    ])
    def test_non_finite_arrays_rejected(self, field, value):
        doc = instance_to_dict(generate(GenSpec(family="cauchy", n=32, m=12,
                                                k=3, seed=5)))
        target = doc["x_orig"] if field == "x_orig" else doc["noise_record"][field]
        target[0] = value
        with pytest.raises(ValueError, match="must be finite"):
            instance_from_dict(doc)

    def test_short_x_orig_rejected(self):
        doc = instance_to_dict(generate(GenSpec(family="cauchy", n=32, m=12,
                                                k=3, seed=5)))
        doc["x_orig"] = doc["x_orig"][:-1]
        with pytest.raises(ValueError, match="x_orig must have length 32"):
            instance_from_dict(doc)

    def test_non_finite_values_are_not_written(self, tmp_path):
        payload = {"run_config": {}, "status": "converged",
                   "metrics": {"rec_err": math.nan}}
        path = tmp_path / "result.json"
        with pytest.raises(ValueError):
            save_result(payload, path)
        assert not path.exists()

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constants_rejected_on_read(self, tmp_path, token):
        path = tmp_path / "result.json"
        save_result({"run_config": {}, "status": "converged",
                     "metrics": {"rec_err": 0.5}}, path)
        path.write_text(path.read_text().replace("0.5", token))
        with pytest.raises(ValueError, match="non-finite JSON constant"):
            load_result(path)
