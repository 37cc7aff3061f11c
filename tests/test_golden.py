"""Golden outputs: one digest per series name over every form, parameter and order.

Each digest hashes, for every form of the name, every parameter value in
``VALUES`` and every order in ``ORDERS``, the built series as ``(min_exp,
nums, den, order)``, or ``"Type: message"`` for the error it raised.  The
digests were recorded when every form was still written with series
arithmetic between its sums and products, so they pin restatements of the
forms to the same outputs, errors and messages included.
"""

import hashlib
import itertools

import pytest

from qlab.qfunctions import Monomial, build, builder_forms, names, param_names

VALUES = ("0", "1", "q", "q^2", "-q", "q^3", "q^-1")
ORDERS = (1, 7, 120)

DIGESTS = {
    "f3_def": "f56a4b9eee12c7c78e15913e1a177b14af734c9ee1317a72d6919e368dc71032",
    "f3_newrep_rhs": "f56a4b9eee12c7c78e15913e1a177b14af734c9ee1317a72d6919e368dc71032",
    "omega3_def": "e3f744f7eb84cbd1944f634be2e33aa01352c5f70f39c79df45d077e0f6e26e8",
    "omega3_rep_rhs": "e3f744f7eb84cbd1944f634be2e33aa01352c5f70f39c79df45d077e0f6e26e8",
    "phi3_def": "288de243c8bc1891fbcff89359a6bb7565a949df3c231b58775b3d09958a197b",
    "phi3_neg": "dc5f9b73bce576494a811af8a544af43d32525a815004f2ccbbdc31451699812",
    "theta_phi_neg": "10c480a33cdd66a46ab770e6ded2b7c345c4ec0b74d9a656cf491679045c619a",
    "euler_product": "e7be52691532da2e0f8401b08399cc3fce15932f1fb664244a59e8440d42d882",
    "euler_inverse": "8501b5c0c5beae38f4a344d279d89fe9e7d37dd606e81ebf52ceabf7d86e668a",
    "spt_lhs": "5f737312e725d1cb8be9055fa6f366426c685d7e16b9cdb109d0a76c21e2912f",
    "spt_rhs": "5f737312e725d1cb8be9055fa6f366426c685d7e16b9cdb109d0a76c21e2912f",
    "sptG_lhs": "b158d3f05152533b0c8912a5b1b3618bf20268a869753d7d55e588bf02d4b74b",
    "sptG_rhs": "b158d3f05152533b0c8912a5b1b3618bf20268a869753d7d55e588bf02d4b74b",
    "G_series": "b7c42f143a2e219fa667d74a29fffbd432d59647c837973f987227ec105a9638",
    "Gprime_series": "0c6afd8af43411d33c04f088d36f917f2cca773fe6d3f1214ea9b90135bd10ea",
    "No_plus_series": "25b5ac86bbe68a2fe6a7dad95eba2613286787f1eeeeaf4607d225fe0da1110c",
    "Ne_series_rhs": "da5a3958821fa217277dd948c3245cca20e640d36200159421df9ba7fe460b3d",
    "fineJ_direct": "f6a1e471631990e26d9a37dfde8e97e84d23020faeaecd542ffaa0b4e8ed2ee1",
    "fineJ_rhs": "f6a1e471631990e26d9a37dfde8e97e84d23020faeaecd542ffaa0b4e8ed2ee1",
    "fineJ_from_f3": "f6a1e471631990e26d9a37dfde8e97e84d23020faeaecd542ffaa0b4e8ed2ee1",
    "thm61_rhs": "0c6afd8af43411d33c04f088d36f917f2cca773fe6d3f1214ea9b90135bd10ea",
    "lem21_lhs": "7310b670487ebc3f807bc5b3d06aa639b4de7b63963ffebea600a772d8c50e4f",
    "lem21_rhs": "7310b670487ebc3f807bc5b3d06aa639b4de7b63963ffebea600a772d8c50e4f",
    "before_ac_rhs": "04201f134d5c3fc34e32fb4183800f89acbc9fb9260b7f62680a59f1db259fcb",
    "z_identity_lhs": "13c8e16806870ad19620b5f988d14d09547870c196fbe332a2477499fc925ecf",
    "z_identity_rhs": "2f2cbb85a40182f6bb30b23b5d1ee2cc097f473f2eb872e0b2abde0e02adf1ab",
    "entry239_lhs": "0c63541da38e11b0bfe6fdf692011e4f64464c4804985e8db18132a019235404",
    "entry239_rhs": "0c63541da38e11b0bfe6fdf692011e4f64464c4804985e8db18132a019235404",
    "even_base_quotient_sum": "ab17deff11e140cc804bcdd684c9d061f7f267d7bff2f7cd300d920b11135752",
}


def digest(name: str) -> str:
    h = hashlib.sha256()
    params = param_names(name)
    for form in range(len(builder_forms(name))):
        for values in itertools.product(VALUES, repeat=len(params)):
            given = {p: Monomial.parse(v) for p, v in zip(params, values)}
            for order in ORDERS:
                try:
                    s = build(name, order, given, form)
                    item = repr((s.min_exp, s.nums, s.den, s.order))
                except Exception as exc:
                    item = f"{type(exc).__name__}: {exc}"
                h.update(item.encode() + b"\n")
    return h.hexdigest()


def test_every_name_is_pinned():
    assert sorted(DIGESTS) == sorted(names())


@pytest.mark.parametrize("name", names())
def test_golden_digest(name):
    assert digest(name) == DIGESTS[name]
