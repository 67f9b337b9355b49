import pytest

from quasicat.anodyne import facet_certificate, prism_certificate
from quasicat.cat import cyclic_group_category, identity_functor, poset_category, nerve
from quasicat.cli import main
from quasicat.jsonio import (
    MalformedInputError,
    cat_from_json,
    cat_to_json,
    certificate_from_json,
    certificate_to_json,
    dumps,
    functor_from_json,
    functor_to_json,
    loads,
    presentation_from_json,
    presentation_to_json,
    smap_from_json,
    smap_to_json,
    sset_from_json,
    sset_to_json,
)
from quasicat.pathcat import hom_sets, path_category
from quasicat.simplicial import build_standard, iso_check, standard_simplex
from quasicat.verify import verify_certificate


def roundtrip(obj):
    return loads(dumps(obj))


def test_sset_roundtrip_fixpoint():
    for X in [standard_simplex(2), build_standard("horn", 3, 1)[0], nerve(cyclic_group_category(2), 3)]:
        j = sset_to_json(X)
        assert roundtrip(j) == j
        Y = sset_from_json(roundtrip(j))
        assert sset_to_json(Y) == j
        assert Y.counts() == X.counts()
        Y.validate()


def test_smap_roundtrip():
    H, incl = build_standard("horn", 2, 1)
    j = smap_to_json(incl)
    f = smap_from_json(roundtrip(j))
    assert smap_to_json(f) == j


def test_cat_roundtrip():
    for C in [poset_category(2), cyclic_group_category(3)]:
        j = cat_to_json(C)
        D = cat_from_json(roundtrip(j))
        assert cat_to_json(D) == j
        D.validate()


def test_functor_roundtrip():
    F = identity_functor(cyclic_group_category(2))
    j = functor_to_json(F)
    G = functor_from_json(roundtrip(j))
    assert functor_to_json(G) == j


def test_presentation_roundtrip_with_table():
    X = standard_simplex(2)
    P = path_category(X)
    j = presentation_to_json(P, hom_sets(P))
    Q = presentation_from_json(roundtrip(j))
    assert presentation_to_json(Q) == presentation_to_json(Q)
    assert len(Q.relations) == 1


def test_certificate_roundtrip_and_verify():
    for cert in [facet_certificate(3, {0, 3}), prism_certificate(2, 1, 1)]:
        j = certificate_to_json(cert)
        assert roundtrip(j) == j
        back = certificate_from_json(roundtrip(j))
        assert certificate_to_json(back) == j
        assert verify_certificate(back)


def test_dumps_deterministic():
    X = standard_simplex(2)
    assert dumps(sset_to_json(X)) == dumps(sset_to_json(standard_simplex(2)))


def _delta2_json():
    return roundtrip(sset_to_json(standard_simplex(2)))


def _unknown_face_base(obj):
    obj["simplices"][1][0]["faces"][0]["base"] = 99
    return obj


def _missing_dim_bound(obj):
    del obj["dim_bound"]
    return obj


def _degeneracy_out_of_range(obj):
    # s_7 of a vertex as a face of the triangle: a 1-simplex only has s_0
    vertex = obj["simplices"][0][0]["id"]
    obj["simplices"][2][0]["faces"][0] = {"word": [7], "base": vertex}
    return obj


MALFORMED = {
    "unknown face base": (_unknown_face_base, "unknown base 99"),
    "missing dim_bound": (_missing_dim_bound, "missing 'dim_bound'"),
    "degeneracy index out of range": (_degeneracy_out_of_range, r"out of range in word \[7\]"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_sset_from_json_rejects_malformed(case):
    corrupt, message = MALFORMED[case]
    with pytest.raises(MalformedInputError, match=message):
        sset_from_json(corrupt(_delta2_json()))


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_complex_exits_2(capsys, tmp_path, case):
    corrupt, _ = MALFORMED[case]
    p = tmp_path / "bad.sset.json"
    p.write_text(dumps(corrupt(_delta2_json())))
    assert main(["certify", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
