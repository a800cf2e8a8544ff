"""Each filter variant declares its characteristic, its domain facts and its
document fields once, on its class.

The functions below are the per-variant dispatch that those class members
replaced, kept verbatim as references. On random composition trees the
members must match them bit for bit: the same ``psi`` bytes, the same
``in_domain`` answers, the same documents and bytes, and the same error type
and message where the references raise.
"""

import json
import math

import numpy as np
import pytest

from helpers import random_complex_matrix, random_hpd, rng_for
from qwss.errors import FilterDomainError, SchemaError
from qwss.filters import (
    Composition,
    Derivative,
    ExpOperator,
    FilterSpec,
    ScalarConvolution,
    Shift,
    Tabulated,
    UnboundedWhiteNoise,
    in_domain,
    white_noise,
)
from qwss.linalg import resolvent
from qwss.filters import apply_filter
from qwss.measure import OperatorSpectralMeasure
from qwss.serialize import filter_to_document, serialize_filter


def ref_characteristic(filt, nus):
    d = filt.dim
    eye = np.eye(d, dtype=np.complex128)
    if isinstance(filt, Shift):
        return np.exp(2j * np.pi * filt.s * nus)[:, None, None] * eye
    if isinstance(filt, Derivative):
        return (2j * np.pi * nus)[:, None, None] * eye
    if isinstance(filt, ScalarConvolution):
        h = np.array([complex(filt.hhat(x)) for x in nus.tolist()], dtype=np.complex128)
        return h[:, None, None] * eye
    if isinstance(filt, ExpOperator):
        return resolvent(filt.gamma, nus) @ filt.a
    if isinstance(filt, Tabulated):
        j = filt.bin_indices(nus)
        outside = np.flatnonzero(j < 0)
        if outside.size:
            raise FilterDomainError(
                f"nu={float(nus[outside[0]])} outside tabulated grid "
                f"[{filt.nu_min}, {filt.nu_max}]"
            )
        return filt.values[j]
    if isinstance(filt, Composition):
        return ref_characteristic(filt.first, nus) @ ref_characteristic(filt.second, nus)
    raise TypeError(f"unknown filter variant {type(filt).__name__}")


def ref_covers(filt, lo, hi):
    if isinstance(filt, Composition):
        return ref_covers(filt.first, lo, hi) and ref_covers(filt.second, lo, hi)
    return filt.covers(lo, hi)


def ref_factors(filt):
    if isinstance(filt, Composition):
        return ref_factors(filt.first) + ref_factors(filt.second)
    return [filt]


def ref_bounded_on_line(filt):
    if isinstance(filt, Derivative):
        return False
    if isinstance(filt, Composition):
        return all(ref_bounded_on_line(f) for f in ref_factors(filt))
    if isinstance(filt, Tabulated):
        return False  # undefined outside its grid
    return True


def ref_square_integrable(filt):
    if isinstance(filt, ExpOperator):
        return True
    if isinstance(filt, Composition):
        fs = ref_factors(filt)
        return all(ref_bounded_on_line(f) for f in fs) and any(
            ref_square_integrable(f) for f in fs
        )
    return False


def ref_in_domain(mu, filt):
    if isinstance(mu, UnboundedWhiteNoise):
        return ref_square_integrable(filt)
    bounds = mu.support_bounds()
    tables = [f for f in ref_factors(filt) if isinstance(f, Tabulated)]
    return bounds is None or all(f.covers(*bounds) for f in tables)


def ref_enc(a):
    return np.stack((a.real, a.imag), -1).tolist()


def ref_filter_to_document(filt):
    if isinstance(filt, Shift):
        return {
            "kind": "filter",
            "variant": "shift",
            "dim": int(filt.dim),
            "s": float(filt.s),
        }
    if isinstance(filt, Derivative):
        return {"kind": "filter", "variant": "derivative", "dim": int(filt.dim)}
    if isinstance(filt, ExpOperator):
        return {
            "kind": "filter",
            "variant": "exp_operator",
            "gamma": ref_enc(filt.gamma),
            "a": ref_enc(filt.a),
        }
    if isinstance(filt, Tabulated):
        return {
            "kind": "filter",
            "variant": "tabulated",
            "nu_min": float(filt.nu_min),
            "nu_max": float(filt.nu_max),
            "values": ref_enc(filt.values),
        }
    if isinstance(filt, Composition):
        return {
            "kind": "filter",
            "variant": "composition",
            "first": ref_filter_to_document(filt.first),
            "second": ref_filter_to_document(filt.second),
        }
    if isinstance(filt, ScalarConvolution):
        raise SchemaError(
            "scalar convolution filters hold an arbitrary callable "
            "and cannot be serialized; tabulate the response instead"
        )
    raise SchemaError(f"not a filter: {type(filt).__name__}")


# --- random composition trees ---------------------------------------------

GRIDS = ((-1.0, 1.0), (-3.0, 3.0))


def lorentzian(nu):
    return 1.0 / (1.0 + nu * nu) - 0.5j * nu / (1.0 + nu * nu)


def random_leaf(rng, d):
    kind = int(rng.integers(5))
    if kind == 0:
        return Shift(dim=d, s=float(rng.uniform(-2.0, 2.0)))
    if kind == 1:
        return Derivative(dim=d)
    if kind == 2:
        return ScalarConvolution(dim=d, hhat=lorentzian)
    if kind == 3:
        return ExpOperator(gamma=random_hpd(rng, d), a=random_complex_matrix(rng, d))
    lo, hi = GRIDS[int(rng.integers(len(GRIDS)))]
    bins = int(rng.integers(1, 6))
    values = np.stack([random_complex_matrix(rng, d) for _ in range(bins)])
    return Tabulated(nu_min=lo, nu_max=hi, values=values)


def random_tree(rng, d, depth):
    """A filter tree of at most ``depth`` composition levels."""
    if depth == 0 or rng.random() < 0.3:
        return random_leaf(rng, d)
    return Composition(
        first=random_tree(rng, d, depth - 1), second=random_tree(rng, d, depth - 1)
    )


def outcome(fn, *args):
    """The value ``fn`` returns, or the type and message of what it raises."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return (type(exc), str(exc))


TREES = [
    (seed, random_tree(rng_for(seed), 1 + seed % 3, 1 + seed % 4)) for seed in range(60)
]


def nodes(filt):
    if isinstance(filt, Composition):
        return [filt] + nodes(filt.first) + nodes(filt.second)
    return [filt]


def test_trees_cover_every_variant_and_outcome():
    kinds = {type(f) for _, tree in TREES for f in nodes(tree)}
    assert kinds == {Shift, Derivative, ScalarConvolution, ExpOperator, Tabulated, Composition}
    refused = [any(isinstance(f, ScalarConvolution) for f in nodes(t)) for _, t in TREES]
    assert 10 <= sum(refused) <= 50
    depths = {1 + seed % 4 for seed, _ in TREES}
    assert depths == {1, 2, 3, 4}


NUS = {
    "inside": np.linspace(-1.0, 1.0, 9),
    "edges": np.array([-0.0, 0.0, 1.0, -1.0, 0.3333333333333333]),
    "outside-narrow": np.array([0.5, 2.0, -2.5]),  # outside (-1, 1), inside (-3, 3)
    "outside-all": np.array([0.1, 4.0]),
}


class TestCharacteristicMatchesReference:
    @pytest.mark.parametrize("where", sorted(NUS))
    def test_psi_bytes_and_errors(self, where):
        nus = NUS[where]
        for seed, tree in TREES:
            got = outcome(lambda: tree._psi(nus))
            want = outcome(lambda: ref_characteristic(tree, nus))
            if want[0] == "ok":
                assert got[0] == "ok", seed
                assert got[1].shape == want[1].shape, seed
                assert got[1].dtype == want[1].dtype, seed
                assert got[1].tobytes() == want[1].tobytes(), seed
            else:
                assert want[0] is FilterDomainError, seed
                assert got == want, seed

    def test_bounded_and_decays(self):
        for seed, tree in TREES:
            assert isinstance(tree, FilterSpec)
            assert tree.bounded is ref_bounded_on_line(tree), seed
            assert tree.decays is ref_square_integrable(tree), seed


class TestInDomainMatchesReference:
    @staticmethod
    def check(make_measure):
        for seed, tree in TREES:
            mu = make_measure(tree.dim)
            assert in_domain(mu, tree) is ref_in_domain(mu, tree), seed

    def test_unbounded_white_noise(self):
        self.check(lambda d: white_noise(np.eye(d), band=math.inf))

    @pytest.mark.parametrize("band", [0.5, 1.0, 2.0, 3.0, 5.0])
    def test_density_inside_and_outside_grids(self, band):
        self.check(lambda d: white_noise(np.eye(d), band=band, bins=2))

    @pytest.mark.parametrize("nu", [-0.5, 1.5, -4.0])
    def test_atoms(self, nu):
        self.check(lambda d: OperatorSpectralMeasure(dim=d, atoms=((nu, np.eye(d)),)))

    def test_empty_measure(self):
        self.check(lambda d: OperatorSpectralMeasure(dim=d, atoms=()))


class TestDocumentsMatchReference:
    def test_document_and_bytes(self):
        for seed, tree in TREES:
            got = outcome(filter_to_document, tree)
            want = outcome(ref_filter_to_document, tree)
            assert got == want, seed
            if want[0] == "ok":
                ref_bytes = (
                    json.dumps(want[1], indent=2, allow_nan=False) + "\n"
                ).encode()
                assert serialize_filter(tree) == ref_bytes, seed
            else:  # a scalar convolution somewhere in the tree
                assert want[0] is SchemaError, seed
                assert outcome(serialize_filter, tree) == want, seed

    @pytest.mark.parametrize("where", ["first", "second", "deep"])
    def test_nested_scalar_convolution_refused(self, where):
        sc = ScalarConvolution(dim=2, hhat=lorentzian)
        shift = Shift(dim=2, s=0.5)
        filt = {
            "first": Composition(first=sc, second=shift),
            "second": Composition(first=shift, second=sc),
            "deep": Composition(
                first=shift, second=Composition(first=Derivative(dim=2), second=sc)
            ),
        }[where]
        assert outcome(filter_to_document, filt) == outcome(ref_filter_to_document, filt)
        assert outcome(filter_to_document, filt)[0] is SchemaError

    @pytest.mark.parametrize("value", [None, 1.5, "shift", np.eye(2)])
    def test_non_filters_refused(self, value):
        assert outcome(filter_to_document, value) == outcome(
            ref_filter_to_document, value
        )


# --- deep trees: the explicit-stack walks against the recursive references --


def shaped_tree(rng, d, shape, depth):
    """A left-nested chain, a right-nested chain or a balanced tree."""
    if depth == 0:
        return random_leaf(rng, d)
    if shape == "left":
        return Composition(first=shaped_tree(rng, d, shape, depth - 1), second=random_leaf(rng, d))
    if shape == "right":
        return Composition(first=random_leaf(rng, d), second=shaped_tree(rng, d, shape, depth - 1))
    return Composition(
        first=shaped_tree(rng, d, shape, depth - 1), second=shaped_tree(rng, d, shape, depth - 1)
    )


SHAPED = [
    (shape, seed, shaped_tree(rng_for(100 + seed), 1 + seed % 3, shape, depth))
    for shape in ("left", "right", "balanced")
    for seed in range(10)
    for depth in [1 + seed % 5 if shape == "balanced" else 1 + 4 * seed]
]


class TestShapedTreesMatchReference:
    @pytest.mark.parametrize("where", sorted(NUS))
    def test_psi_bytes_and_errors(self, where):
        nus = NUS[where]
        for shape, seed, tree in SHAPED:
            got = outcome(lambda: tree._psi(nus))
            want = outcome(lambda: ref_characteristic(tree, nus))
            if want[0] == "ok":
                assert got[0] == "ok", (shape, seed)
                assert got[1].tobytes() == want[1].tobytes(), (shape, seed)
            else:
                assert got == want, (shape, seed)

    @pytest.mark.parametrize("lo, hi", [(-0.5, 0.5), (-1.0, 1.0), (-2.0, 2.0), (-4.0, 4.0)])
    def test_covers_and_in_domain(self, lo, hi):
        for shape, seed, tree in SHAPED:
            assert tree.covers(lo, hi) is ref_covers(tree, lo, hi), (shape, seed)
            mu = white_noise(np.eye(tree.dim), band=hi, bins=2)
            assert in_domain(mu, tree) is ref_in_domain(mu, tree), (shape, seed)

    def test_shapes_mix_outcomes(self):
        for shape in ("left", "right", "balanced"):
            covered = {t.covers(-2.0, 2.0) for sh, _, t in SHAPED if sh == shape}
            assert covered == {True, False}, shape


@pytest.mark.parametrize("nested", ["left", "right"])
def test_depth_5000_chain_applies(nested):
    chain = Derivative(dim=1)
    for _ in range(5000):
        pair = (chain, Derivative(dim=1)) if nested == "left" else (Derivative(dim=1), chain)
        chain = Composition(*pair)
    # |2 pi i nu| = 1 here, so 5001 factors keep the weight at 2
    mu = OperatorSpectralMeasure(dim=1, atoms=((1.0 / (2.0 * math.pi), [[2.0]]),))
    assert in_domain(mu, chain) and chain.covers(-1.0, 1.0)
    assert abs(apply_filter(mu, chain).weights[0, 0, 0] - 2.0) < 1e-9
    narrow = Composition(first=chain, second=Tabulated(-0.1, 0.1, [[[1.0]]]))
    assert not narrow.covers(-1.0, 1.0) and not in_domain(mu, narrow)
