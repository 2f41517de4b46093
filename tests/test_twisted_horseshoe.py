"""The horseshoe's middle resolution, built with a twisted differential.

`derived.horseshoe` takes P^M_n = P^L_n (+) P^N_n with d^M_n =
[[d^L_n, theta_n], [0, d^N_n]] and checks only that consecutive middle
maps compose to zero (and, at its stop, that the last one is mono).
These tests check what that certificate stands for, on the sequences the
z_delta workload draws and on the Cartan-Eilenberg columns of C4 and
C2xC2: the middle complex has no homology in positive degrees, the
augmentation induces H_0 = M, and `lift_resolution_map` into and out of a
middle gives chain maps.  A wrong theta that no lift check sees raises
`ExactnessError`, also under `python -O`.
"""

import random

import pytest

from functor_homology import functors, spectral
from functor_homology.abelian import is_iso
from functor_homology.complexes import homology_at
from functor_homology.derived import horseshoe, lift_resolution_map, resolve
from functor_homology.errors import ShapeError
from functor_homology.fincat import standard
from functor_homology.modules import trivial_module
from functor_homology.rings import (ZZ, cyclic_group_table, group_algebra,
                                    group_ring_map, product_group_table)
from functor_homology.verification import random_diagram_ses
from test_diagrams import _passes_under_optimize

F2C2 = group_algebra(2, cyclic_group_table(2))
INDICES = ("arrow", "parallel_pair", "square")


def _assert_resolves(res, n_max):
    """res resolves res.A through degree n_max: no homology in degrees
    1..n_max-1 (and n_max once the resolution has ended), and the
    augmentation induces an isomorphism H_0 -> A."""
    cx = res.complex(n_max)
    top = n_max if res.exhausted else n_max - 1
    for n in range(1, top + 1):
        assert homology_at(cx, n).obj.is_zero(), n
    sub0 = homology_at(cx, 0)
    assert is_iso(sub0.epi.cofactor(sub0.mono.then(res.aug())))


def _assert_chain_map(maps, f, src, tgt, n_max):
    """maps lifts f: src.A -> tgt.A: it commutes with the augmentations
    and with every differential up to n_max."""
    assert maps[0].then(tgt.aug()) == src.aug().then(f)
    for n in range(1, n_max + 1):
        assert maps[n].then(tgt.diff(n)) == src.diff(n).then(maps[n - 1]), n


def _assert_lifts_through(res_mid, n_max):
    """Lifts of the identity of the middle object from its cover-built
    resolution into res_mid and back, and of a map into and out of it
    (the zero endomorphism), are chain maps."""
    M = res_mid.A
    own = resolve(M, n_max)
    for f in (M.identity(), M.zero_to(M)):
        _assert_chain_map(lift_resolution_map(f, own, res_mid, n_max), f, own, res_mid, n_max)
        _assert_chain_map(lift_resolution_map(f, res_mid, own, n_max), f, res_mid, own, n_max)


def _z_delta_draws():
    """The sequences of the z_delta workload: two per key, each drawn
    from the rng its `make_inputs` seeds (the ses morphism drawn after
    them is not needed)."""
    out = []
    for key in range(18):
        rng = random.Random(f"z_delta:{key}")
        index = standard(INDICES[key % 3])
        out += [(f"{key}-{k}", random_diagram_ses(rng, index, ZZ)) for k in range(2)]
    return out


Z_DELTA = _z_delta_draws()


@pytest.mark.parametrize("ses", [s for _, s in Z_DELTA], ids=[i for i, _ in Z_DELTA])
def test_the_middle_resolves_on_the_z_delta_draws(ses):
    n_max = 3  # the depth of z_delta's horseshoes (N_MAX = 2, plus one)
    hs = horseshoe(ses, resolve(ses.L, n_max), resolve(ses.N, n_max), n_max)
    _assert_resolves(hs.res_mid, n_max)
    _assert_lifts_through(hs.res_mid, n_max)


def _ce_fixture(big):
    table = (cyclic_group_table(4) if big == "C4" else
             product_group_table(cyclic_group_table(2), cyclic_group_table(2)))
    ring = group_algebra(2, table)
    F = functors.base_change(group_ring_map(ring, F2C2, [0, 1, 0, 1]))
    return F, trivial_module(ring)


@pytest.mark.parametrize("n_max", range(3, 9))
@pytest.mark.parametrize("big", ["C4", "C2xC2"])
def test_every_ce_column_resolves(big, n_max):
    # grothendieck_ss's grid: its columns are middles of horseshoes, and
    # each column's second horseshoe has a middle as its sub resolution
    F, A = _ce_fixture(big)
    T = n_max + 1
    ce = spectral.ce_grid(functors.apply_to_complex(F, resolve(A, T).complex(T)), T)
    for pdeg in range(ce.width + 1):
        for res in (ce.hsZ[pdeg].res_mid, ce.hsC[pdeg].res_mid):
            _assert_resolves(res, T)
        _assert_lifts_through(ce.hsC[pdeg].res_mid, T)


def test_a_middle_has_no_kernel_data():
    F, A = _ce_fixture("C4")
    ce = spectral.ce_grid(functors.apply_to_complex(F, resolve(A, 3).complex(3)), 3)
    mid = ce.hsC[1].res_mid
    for read in (mid.cover, mid.mono, mid.kernel_obj):
        with pytest.raises(ShapeError, match="given by its differentials has no"):
            read(1)
    assert mid.diff(1) is mid.diffs[1]


# a lift that is wrong and unchecked from the call-th one on (call 1 is
# lam, call n + 1 is theta_n): only the horseshoe's certificate, that the
# middle maps compose to zero, is left to catch it
WRONG_THETA = """
from functor_homology.complexes import SES
from functor_homology.derived import horseshoe, resolve
from functor_homology.errors import ExactnessError
from functor_homology.modules import ModMor, cyclic, trivial_module
from functor_homology.rings import cyclic_group_table, group_algebra

true_lift = ModMor.lift


def planted(ses, call, n_max, degree):
    calls = []

    def lift(self, e):
        calls.append(e)
        h = true_lift(self, e)
        if len(calls) < call:
            return h
        return h + ModMor(h.source, h.target, h.ops.identity(h.target.gens), check=False)

    res_l, res_n = resolve(ses.L, n_max), resolve(ses.N, n_max)
    ModMor.lift = lift
    try:
        horseshoe(ses, res_l, res_n, n_max)
    except ExactnessError as exc:
        want = f"horseshoe: middle differentials do not compose to zero in degree {degree}"
        if str(exc) != want:
            raise SystemExit(f"wrong message: {exc}")
    else:
        raise SystemExit(f"a wrong theta_{call - 1} was accepted")
    finally:
        ModMor.lift = true_lift


# 0 -> Z -2-> Z -> Z/2 -> 0: theta_1 = -1, and 0 is caught by eps d_1 = 0
Z = cyclic(0)
planted(SES(ModMor(Z, Z, [[2]]), ModMor(Z, cyclic(2), [[1]])), 2, 2, 1)
# 0 -> F_2 -> F_2[C2] -> F_2 -> 0: every theta_n is nonzero
F2C2 = group_algebra(2, cyclic_group_table(2))
_, epi = trivial_module(F2C2).free_cover()
_, mono = epi.kernel()
planted(SES(mono, epi), 3, 3, 2)
planted(SES(mono, epi), 4, 3, 3)
"""


def test_a_wrong_theta_raises_under_optimize():
    _passes_under_optimize(WRONG_THETA)
