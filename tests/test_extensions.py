import random
import re

import pytest

from prolong.errors import MismatchedBase, NotExact, NotInjective, NotSurjective
from prolong.extensions import (
    FactorSet,
    Prolongation,
    ShortExtension,
    choose_section,
    factor_set,
    induced_sequence,
    is_central,
    make_extension,
    pullback,
    validate_prolongation,
)
from prolong.fixtures import builtin
from prolong.groups import (
    Homomorphism,
    all_homomorphisms,
    center,
    compose,
    identity_hom,
    quotient,
    subgroup_as_group,
    subgroup_closure,
    trivial_hom,
)

from oracles import check_factor_identity, equivalent_extensions


def ext_z2_z4():
    z2, z4 = builtin("Z2"), builtin("Z4")
    return make_extension(Homomorphism(z2, z4, (0, 2)),
                          Homomorphism(z4, z2, (0, 1, 0, 1)))


def ext_z3_s3():
    z3, s3, z2 = builtin("Z3"), builtin("S3"), builtin("Z2")
    three_cycles = subgroup_closure(
        s3, (next(a for a in s3.elements() if s3.element_order(a) == 3),))
    grp, inc = subgroup_as_group(three_cycles)
    iso = all_homomorphisms(z3, grp, injective_only=True)[0]
    sign = Homomorphism(s3, z2, tuple(
        0 if s3.element_order(a) in (1, 3) else 1 for a in s3.elements()))
    return make_extension(compose(inc, iso), sign)


def ladder_over_trivial(ext):
    """The identity-shaped ladder of an extension of Z2 by Z2 over (Z2 = Z2 -> 1)."""
    z1, z2 = builtin("Z1"), builtin("Z2")
    e0 = make_extension(identity_hom(z2), trivial_hom(z2, z1))
    return Prolongation(e0=e0, e=ext, alpha=identity_hom(z2),
                        beta=ext.j, gamma=Homomorphism(z1, ext.g, (0,)))


# --- construction and exactness ----------------------------------------------

def test_make_extension_examples():
    assert ext_z2_z4().b.order == 4
    z2, v4 = builtin("Z2"), builtin("V4")
    ext = make_extension(Homomorphism(z2, v4, (0, 2)),
                         Homomorphism(v4, z2, (0, 1, 0, 1)))
    assert ext.g.order == 2
    assert ext_z3_s3().b.order == 6


def test_make_extension_errors():
    z2, z4 = builtin("Z2"), builtin("Z4")
    with pytest.raises(NotInjective):
        make_extension(trivial_hom(z2, z4), Homomorphism(z4, z2, (0, 1, 0, 1)))
    with pytest.raises(NotSurjective):
        make_extension(Homomorphism(z2, z4, (0, 2)), trivial_hom(z4, z2))
    v4 = builtin("V4")
    with pytest.raises(NotExact):
        make_extension(Homomorphism(z2, v4, (0, 1)),
                       Homomorphism(v4, z2, (0, 1, 0, 1)))


def test_short_extension_refuses_a_row_that_is_not_exact():
    """A ShortExtension built directly is exact: each non-exact pair is
    refused with make_extension's error, and a, b, g are read off j and p."""
    z2, z4, v4 = builtin("Z2"), builtin("Z4"), builtin("V4")
    onto = Homomorphism(z4, z2, (0, 1, 0, 1))
    for error, message, j, p in [
        (NotExact, "j and p are not composable", Homomorphism(z2, v4, (0, 2)), onto),
        (NotInjective, "kernel map is not injective", trivial_hom(z2, z4), onto),
        (NotSurjective, "projection is not surjective",
         Homomorphism(z2, z4, (0, 2)), trivial_hom(z4, z2)),
        (NotExact, "image(j) != kernel(p)", Homomorphism(z2, v4, (0, 1)),
         Homomorphism(v4, z2, (0, 1, 0, 1))),
    ]:
        with pytest.raises(error, match=re.escape(message)):
            ShortExtension(j, p)
    ext = ShortExtension(Homomorphism(z2, z4, (0, 2)), onto)
    assert (ext.a, ext.b, ext.g) == (z2, z4, z2)
    assert ext == make_extension(ext.j, ext.p)


def test_is_central():
    assert is_central(ext_z2_z4())
    assert not is_central(ext_z3_s3())
    q8 = builtin("Q8")
    zq = center(q8)
    grp, inc = subgroup_as_group(zq)
    q = quotient(q8, zq)
    assert is_central(make_extension(inc, q.projection))


# --- sections and factor sets -------------------------------------------------

def test_section_least_index():
    assert choose_section(ext_z2_z4()).u == (0, 1)


def test_section_split_product():
    z3, z2 = builtin("Z3"), builtin("Z2")
    from prolong.groups import direct_product
    prod = direct_product(z3, z2)
    j = Homomorphism(z3, prod, tuple(a * 2 for a in z3.elements()))
    p = Homomorphism(prod, z2, tuple(x % 2 for x in prod.elements()))
    ext = make_extension(j, p)
    section = choose_section(ext)
    assert section.u == (0, 1)  # the pairs (0, g)
    fs = factor_set(ext, section)
    assert all(v == 0 for row in fs.f for v in row)


def test_seeded_section_other_fiber():
    ext = ext_z2_z4()
    seen = set()
    for seed in range(12):
        s = choose_section(ext, random.Random(seed))
        assert s.u[0] == 0 and ext.p.map[s.u[1]] == 1
        seen.add(s.u)
    assert (0, 3) in seen
    other = factor_set(ext, next(choose_section(ext, random.Random(seed))
                                 for seed in range(12)
                                 if choose_section(ext, random.Random(seed)).u == (0, 3)))
    assert other.f[1][1] == 1  # 3 + 3 = 6 = 2 mod 4, which is j(1)


def test_factor_set_values():
    ext = ext_z2_z4()
    fs = factor_set(ext, choose_section(ext))
    assert fs.f == ((0, 0), (0, 1))
    assert check_factor_identity(ext, choose_section(ext), fs)


def test_factor_set_certificate_catches_a_bad_section():
    """Under python -O, factor_set over a Section built with its own check
    patched out, u = (0, 1, 1) on Z2 -> Z6 -> Z3 (u_2 lies over 1), raises
    CertificateFailed at (1, 1), where u_1 u_1 u_2^-1 = 1 is not in j(Z2)."""
    import subprocess
    import sys
    from pathlib import Path
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import prolong.extensions as ex\n"
        "from prolong.errors import CertificateFailed\n"
        "from prolong.fixtures import builtin\n"
        "from prolong.groups import Homomorphism\n"
        "z2, z6, z3 = builtin('Z2'), builtin('Z6'), builtin('Z3')\n"
        "ext = ex.ShortExtension(Homomorphism(z2, z6, (0, 3)),\n"
        "                        Homomorphism(z6, z3, (0, 1, 2, 0, 1, 2)))\n"
        "ex.Section.__post_init__ = lambda self: None\n"
        "try:\n"
        "    ex.factor_set(ext, ex.Section(ext, (0, 1, 1)))\n"
        "except CertificateFailed as exc:\n"
        "    print('certificate:', exc)\n"
    )
    res = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env={"PYTHONPATH": str(src)})
    assert res.returncode == 0, res.stderr
    assert res.stdout == "certificate: factor set value at (1, 1) must lie in image(j)\n"


def test_factor_identity_detects_corruption():
    ext = ext_z2_z4()
    section = choose_section(ext)
    good = factor_set(ext, section)
    bad = FactorSet(ext=ext, section=section, f=((0, 1), (0, 1)))
    assert check_factor_identity(ext, section, good)
    assert not check_factor_identity(ext, section, bad)


def test_factor_identity_nonabelian():
    ext = ext_z3_s3()
    section = choose_section(ext)
    assert check_factor_identity(ext, section, factor_set(ext, section))


def test_factor_identity_trivial_quotient():
    z2, z1 = builtin("Z2"), builtin("Z1")
    ext = make_extension(identity_hom(z2), trivial_hom(z2, z1))
    section = choose_section(ext)
    assert check_factor_identity(ext, section, factor_set(ext, section))


# --- pullbacks -----------------------------------------------------------------

def test_pullback_along_identity_is_equivalent():
    ext = ext_z2_z4()
    pb = pullback(ext, identity_hom(ext.g))
    assert pb.ext.b.order == ext.b.order
    assert equivalent_extensions(pb.ext, ext) is not None


def test_pullback_along_trivial_splits():
    ext = ext_z2_z4()
    z4 = builtin("Z4")
    pb = pullback(ext, trivial_hom(z4, ext.g))
    assert pb.ext.b.order == ext.a.order * z4.order
    sections = all_homomorphisms(z4, pb.ext.b)
    assert any(tuple(pb.ext.p.map[s.map[c]] for c in z4.elements())
               == tuple(z4.elements()) for s in sections)


def test_pullback_along_a_map_into_another_group_raises():
    ext = ext_z2_z4()
    with pytest.raises(MismatchedBase):
        pullback(ext, identity_hom(builtin("Z4")))


def test_pullback_fiber_count_and_squares():
    ext = ext_z2_z4()
    z4 = builtin("Z4")
    pb = pullback(ext, Homomorphism(z4, ext.g, (0, 1, 0, 1)))
    assert pb.ext.b.order == 8
    # commuting squares: to_base . j' = j and p . to_base = along . p'
    for a in ext.a.elements():
        assert pb.to_base.map[pb.ext.j.map[a]] == ext.j.map[a]
    for x in pb.ext.b.elements():
        assert ext.p.map[pb.to_base.map[x]] == (0, 1, 0, 1)[pb.ext.p.map[x]]


# --- prolongation validation ----------------------------------------------------

def test_identity_ladder_passes():
    ext = ext_z2_z4()
    ladder = Prolongation(e0=ext, e=ext, alpha=identity_hom(ext.a),
                          beta=identity_hom(ext.b), gamma=identity_hom(ext.g))
    assert validate_prolongation(ladder).ok


def test_gamma_not_mono_fails():
    ext = ext_z2_z4()
    z2 = builtin("Z2")
    bad = Prolongation(e0=ext, e=ext, alpha=identity_hom(ext.a),
                       beta=identity_hom(ext.b), gamma=trivial_hom(z2, z2))
    report = validate_prolongation(bad)
    assert not report.ok
    failed = {item.name for item in report.failures()}
    assert "gamma_mono" in failed


def test_z4_over_trivial_base_passes():
    ladder = ladder_over_trivial(ext_z2_z4())
    assert validate_prolongation(ladder).ok


# --- induced sequence -------------------------------------------------------------

def test_induced_sequence_rejects_invalid_ladder():
    from prolong.errors import InvalidProlongation
    ext = ext_z2_z4()
    z2 = builtin("Z2")
    bad = Prolongation(e0=ext, e=ext, alpha=identity_hom(ext.a),
                       beta=identity_hom(ext.b), gamma=trivial_hom(z2, z2))
    with pytest.raises(InvalidProlongation):
        induced_sequence(bad)


def test_induced_alpha_injective():
    ladder = ladder_over_trivial(ext_z2_z4())
    ind = induced_sequence(ladder)
    assert ind.e0_data.quotient.order == ladder.e0.b.order
    assert ind.eps.map == tuple(ladder.beta.map)


def test_induced_gamma_surjective_gives_trivial_quotient():
    ext = ext_z2_z4()
    ladder = Prolongation(e0=ext, e=ext, alpha=identity_hom(ext.a),
                          beta=identity_hom(ext.b), gamma=identity_hom(ext.g))
    ind = induced_sequence(ladder)
    assert ind.coker.quotient.order == 1
    assert set(ind.eps.map) == set(ext.b.elements())


def test_induced_sequence_fixture():
    ladder = ladder_over_trivial(ext_z2_z4())
    ind = induced_sequence(ladder)
    assert (ind.seq.a.order, ind.seq.b.order, ind.seq.g.order) == (2, 4, 2)
    # the identified square: eps . i = j and p . eps = gamma . pi
    for a in ladder.e.a.elements():
        assert ind.eps.map[ind.i.map[a]] == ladder.e.j.map[a]
    for e in ind.e0_data.quotient.elements():
        assert ladder.e.p.map[ind.eps.map[e]] == ladder.gamma.map[ind.pi.map[e]]
    assert ind.top.a.order == 2 and ind.top.g.order == 1
