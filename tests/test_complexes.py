import pytest

from functor_homology.complexes import ChainMap, Complex, SES, homology_at
from functor_homology.derived import resolve
from functor_homology.diagrams import constant_diagram, projection
from functor_homology.errors import ExactnessError, ShapeError
from functor_homology.fincat import standard
from functor_homology.modules import ModMor, cyclic
from functor_homology.rings import ZZ


def test_complex_rejects_nonzero_dd():
    Zm = cyclic(0)
    with pytest.raises(ExactnessError):
        Complex(0, 2, {0: Zm, 1: Zm, 2: Zm},
                {1: Zm.identity(), 2: Zm.identity()})


def test_ses_validation():
    Zm, Z2 = cyclic(0), cyclic(2)
    SES(ModMor(Zm, Zm, [[2]]), ModMor(Zm, Z2, [[1]]))
    with pytest.raises(ExactnessError):
        SES(ModMor(Zm, Zm, [[4]]), ModMor(Zm, Z2, [[1]]))  # not exact
    with pytest.raises(ExactnessError):
        SES(Z2.zero_to(Zm), ModMor(Zm, Z2, [[1]]))  # first map not mono


def test_chain_map_square_validation():
    Zm = cyclic(0)
    c = Complex(0, 1, {0: Zm, 1: Zm}, {1: ModMor(Zm, Zm, [[2]])})
    ChainMap(c, c, {0: ModMor(Zm, Zm, [[3]]), 1: ModMor(Zm, Zm, [[3]])})
    with pytest.raises(ShapeError):
        ChainMap(c, c, {0: ModMor(Zm, Zm, [[3]]), 1: ModMor(Zm, Zm, [[5]])})


def test_homology_out_of_range():
    Zm = cyclic(0)
    c = Complex(0, 1, {0: Zm, 1: Zm}, {1: ModMor(Zm, Zm, [[2]])})
    with pytest.raises(ShapeError):
        homology_at(c, 5)


def test_d_resolve_componentwise():
    arrow = standard("arrow")
    Z2 = cyclic(2)
    d = constant_diagram(arrow, Z2)
    res = resolve(d, 2)
    cx = res.complex(2)
    assert cx.is_exact_everywhere_interior()
    # each component of the resolution is itself a resolution of the
    # component (free terms, exact, H_0 the component again)
    from functor_homology.complexes import project_complex
    for o in arrow.objects:
        assert projection(res.term(0), o).free_rank is not None
        comp_cx = project_complex(cx, o)
        assert comp_cx.is_exact_everywhere_interior()
        sub = homology_at(comp_cx, 0)
        assert sub.obj.invariant_factors() == ([2], 0)
    # the zero diagram resolves to zero
    from functor_homology.diagrams import zero_diagram
    zres = resolve(zero_diagram(arrow, ZZ), 2)
    assert all(zres.term(n).is_zero() for n in range(3))
