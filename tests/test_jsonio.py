import pytest

from quasicat.anodyne import facet_certificate, prism_certificate
from quasicat.cat import cyclic_group_category, poset_category, nerve
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
    sset_from_json,
    sset_to_json,
)
from quasicat.simplicial import SimplicialSet, build_standard, standard_simplex
from quasicat.verify import verify_certificate

from helpers import identity_functor


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


def test_certificate_roundtrip_and_verify():
    for cert in [facet_certificate(3, {0, 3}), prism_certificate(2, 1, 1)]:
        j = certificate_to_json(cert)
        assert roundtrip(j) == j
        back = certificate_from_json(roundtrip(j))
        assert certificate_to_json(back) == j
        assert verify_certificate(back)


def test_loaded_certificate_target_is_validated_once(monkeypatch):
    # the loader's constructor validates the target; the verifier must not
    # validate it again
    calls = []
    validate = SimplicialSet.validate

    def counting(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(SimplicialSet, "validate", counting)
    cert = certificate_from_json(roundtrip(certificate_to_json(prism_certificate(2, 1, 1))))
    assert verify_certificate(cert) and verify_certificate(cert)
    assert calls == [cert.target]


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


def _fractional_id(obj):
    obj["simplices"][0][0]["id"] = 0.5
    return obj


def _vertex_faces(value):
    # a vertex has no faces: its entry must carry "faces": [], and nothing else loads
    def corrupt(obj):
        if value is None:
            del obj["simplices"][0][0]["faces"]
        else:
            obj["simplices"][0][0]["faces"] = value
        return obj

    return corrupt


def _dim_bound(value):
    def corrupt(obj):
        obj["dim_bound"] = value
        return obj

    return corrupt


MALFORMED = {
    "unknown face base": (_unknown_face_base, "unknown base 99"),
    # refused before the levels are allocated: 10**9 would ask for tens of GB
    "dim_bound above the limit": (_dim_bound(13), "dim_bound 13 above the limit 12"),
    "dim_bound of 10**9": (_dim_bound(10**9), "dim_bound 1000000000 above the limit 12"),
    "fractional id": (_fractional_id, "expected an integer, got 0.5"),
    "missing dim_bound": (_missing_dim_bound, "missing 'dim_bound'"),
    "degeneracy index out of range": (_degeneracy_out_of_range, r"out of range in word \[7\]"),
    "vertex without faces": (_vertex_faces(None), "vertex 0: missing 'faces'"),
    "vertex faces not a list": (_vertex_faces("junk"), r"vertex 0: faces must be \[\], got 'junk'"),
    "vertex with a face": (_vertex_faces([{"word": [], "base": 7}]), r"vertex 0: faces must be \[\], got \[\{"),
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


def _point_json():
    return {"dim_bound": 0, "simplices": [[{"id": 0, "faces": []}]]}


def _functor_missing_object():
    obj = functor_to_json(identity_functor(cyclic_group_category(2)))
    obj["object_map"] = {}
    return obj


MALFORMED_INPUTS = {
    "certificate without steps": ("cert-verify", {"target": _point_json(), "source_ids": [0]}),
    "certificate that is a list": ("cert-verify", [1, 2]),
    "functor missing an object": ("nerve-equiv", _functor_missing_object()),
    "complex that is a number": ("certify", 5),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_2(capsys, tmp_path, case):
    command, obj = MALFORMED_INPUTS[case]
    p = tmp_path / "bad.json"
    p.write_text(dumps(obj))
    assert main([command, str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _cat_json():
    return roundtrip(cat_to_json(cyclic_group_category(2)))


def _functor_json():
    return roundtrip(functor_to_json(identity_functor(cyclic_group_category(2))))


def _cert_json():
    return roundtrip(certificate_to_json(facet_certificate(3, {0, 3})))


def _corrupt(make, edit):
    obj = make()
    edit(obj)
    return obj


LOADERS = {
    "cat": cat_from_json,
    "functor": functor_from_json,
    "cert": certificate_from_json,
}

MALFORMED_DOCUMENTS = {
    # case: (loader, valid document, corruption, expected message)
    "cat: arrow to an unknown object": (
        "cat", _cat_json, lambda o: o["arrows"][0].update(tgt="nowhere"), "unknown name 'nowhere'"
    ),
    "cat: compose entry too short": ("cat", _cat_json, lambda o: o["compose"][0].pop(), r"expected \[g, f, g.f\]"),
    "cat: missing identity": ("cat", _cat_json, lambda o: o["identities"].clear(), "missing entry"),
    "cat: composition table hole": ("cat", _cat_json, lambda o: o["compose"].pop(), "composition table wrong"),
    "functor: unknown arrow image": (
        "functor", _functor_json, lambda o: o["arrow_map"].update({k: "zz" for k in o["arrow_map"]}), "unknown name 'zz'"
    ),
    "functor: missing arrow_map": ("functor", _functor_json, lambda o: o.pop("arrow_map"), "missing 'arrow_map'"),
    "cert: face index out of range": (
        "cert", _cert_json, lambda o: o["steps"][0]["horn"][0].update(face=9), "face index 9"
    ),
    "cert: step above dim_bound": ("cert", _cert_json, lambda o: o["steps"][0].update(n=50), "dimension 50 outside"),
    "cert: source id not an integer": (
        "cert", _cert_json, lambda o: o["source_ids"].append("x"), "expected an integer"
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
def test_loaders_reject_malformed(case):
    loader, make, edit, message = MALFORMED_DOCUMENTS[case]
    with pytest.raises(MalformedInputError, match=message):
        LOADERS[loader](_corrupt(make, edit))
