"""Identity verifiers: pass on valid inputs, raise on bad preconditions,
serialize deterministically, and actually record mismatches."""

import itertools
import json

import pytest

from qweights import identities as idn
from qweights import qkostant
from qweights.identities import Report
from qweights.lusztig import WeightMultiset, weyl_dimension
from qweights.poly import QPoly
from qweights.root_system import Weight, build_root_system, clear_caches
from qweights.weyl import orbit


class TestVerifiers:
    @pytest.mark.parametrize("name", ["A2", "B2", "C3", "G2", "E6"])
    def test_adjoint(self, name):
        report = idn.verify_adjoint(build_root_system(name))
        assert report.passed
        assert report.identity == "adjoint"
        assert report.failures == []

    @pytest.mark.parametrize("name", ["B2", "G2", "C3"])
    def test_little_adjoint(self, name):
        report = idn.verify_little_adjoint(build_root_system(name))
        assert report.passed

    def test_little_adjoint_rejects_single_length(self):
        for name in ("A2", "D4"):
            with pytest.raises(ValueError):
                idn.verify_little_adjoint(build_root_system(name))

    @pytest.mark.parametrize("name,lam,gam", [
        ("A2", (1, 1), (1, 1)), ("A2", (1, 0), (2, 1)),
        ("B2", (0, 2), (1, 0)), ("G2", (1, 0), (0, 1)),
    ])
    def test_main(self, name, lam, gam):
        rs = build_root_system(name)
        report = idn.verify_main_identity(rs, Weight(lam), Weight(gam))
        assert report.passed
        assert "value" in report.details

    def test_minuscule(self):
        a2 = build_root_system("A2")
        assert idn.verify_minuscule(a2, Weight((1, 0))).passed
        c3 = build_root_system("C3")
        assert idn.verify_minuscule(c3, Weight((1, 0, 0))).passed
        with pytest.raises(ValueError):
            idn.verify_minuscule(a2, Weight((1, 1)))         # adjoint, not minuscule
        with pytest.raises(ValueError):
            idn.verify_minuscule(a2, Weight((0, 0)))
        with pytest.raises(ValueError):
            idn.verify_minuscule(c3, Weight((0, 0, 1)))      # orbit smaller than dim

    def test_minuscule_builds_one_table_each(self, monkeypatch):
        # the lowest weight is read first, so each of D5's three minuscule
        # fundamental weights builds its module box once
        builds = []
        build = qkostant.PartitionEngine._build
        monkeypatch.setattr(qkostant.PartitionEngine, "_build",
                            lambda eng, box: builds.append(box) or build(eng, box))
        clear_caches()
        d5 = build_root_system("D5")
        for i in (0, 3, 4):
            assert idn.verify_minuscule(d5, d5.fundamental_weight(i)).passed
        assert len(builds) == 3

    def test_is_minuscule_catalogue(self):
        d4 = build_root_system("D4")
        flags = [idn.is_minuscule(d4, d4.fundamental_weight(i)) for i in range(4)]
        assert flags == [True, False, True, True]
        b3 = build_root_system("B3")
        assert [idn.is_minuscule(b3, b3.fundamental_weight(i)) for i in range(3)] \
            == [False, False, True]
        g2 = build_root_system("G2")
        assert not any(idn.is_minuscule(g2, g2.fundamental_weight(i))
                       for i in range(2))

    @pytest.mark.parametrize("name", [
        "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "C4", "D4", "D5",
        "G2", "F4", "E6",
    ])
    def test_is_minuscule_is_the_orbit_definition(self, name):
        # one orbit exactly when the orbit is as large as the module
        rs = build_root_system(name)
        for coords in itertools.product(range(3), repeat=rs.rank):
            if sum(coords) <= 2:
                lam = Weight(coords)
                expected = (not lam.is_zero()
                            and len(orbit(rs, lam)) == weyl_dimension(rs, lam))
                assert idn.is_minuscule(rs, lam) == expected, lam

    # the stabilizers are closed forms, so E7 and E8 walk no Weyl group
    @pytest.mark.parametrize("name", ["A2", "B2", "B3", "C3", "G2", "E7", "E8"])
    def test_coxeter(self, name):
        assert idn.verify_coxeter_identity(build_root_system(name)).passed

    def test_height_duality_pass_and_vacuous(self):
        b2 = build_root_system("B2")
        good = idn.verify_height_duality(b2, Weight((2, 0)))
        assert good.passed and good.details["hypothesis_holds"]
        assert good.details["generalized_exponents"] == [2, 4]
        # 3*w1 fails the dimension hypothesis: nothing to check, vacuous pass
        vac = idn.verify_height_duality(b2, Weight((3, 0)))
        assert vac.passed and not vac.details["hypothesis_holds"]
        assert "generalized_exponents" not in vac.details
        with pytest.raises(ValueError):
            idn.verify_height_duality(b2, Weight((0, 1)))     # not in root lattice
        with pytest.raises(ValueError):
            idn.verify_height_duality(b2, Weight((-1, 0)))    # not dominant

    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "G2"])
    def test_height_duality_trivial_module(self, name):
        # the zero weight alone, of height 0, and the exponent 0: nothing
        # is positive, and the identity holds
        rs = build_root_system(name)
        report = idn.verify_height_duality(rs, Weight.zero(rs.rank))
        assert report.passed, report.failures
        assert report.details == {"hypothesis_holds": True, "dim_zero_weight_space": 1,
                                  "dim_principal_fixed_space": 1,
                                  "generalized_exponents": [0]}

    def test_induction(self):
        rs = build_root_system("B2")
        rep = idn.verify_induction_lemma(rs, rs.theta, -rs.theta, 1)
        assert rep.passed
        with pytest.raises(ValueError):
            idn.verify_induction_lemma(rs, rs.theta, rs.theta, 0)
        with pytest.raises(ValueError):
            idn.verify_induction_lemma(rs, Weight((-1, 0)), -rs.theta, 1)

    def test_subregular(self):
        g2 = build_root_system("G2")
        rep = idn.verify_subregular_identity(g2, Weight((0, 1)), 0)
        assert rep.passed
        assert rep.details["poincare_series"] == "1*q^1"
        with pytest.raises(ValueError):
            idn.verify_subregular_identity(g2, Weight((0, 1)), 1)  # long root
        b2 = build_root_system("B2")
        with pytest.raises(ValueError):
            idn.verify_subregular_identity(b2, Weight((0, 1)), 1)  # not in lattice


class TestClassification:
    def test_a1_family(self):
        a1 = build_root_system("A1")
        pairs = idn.classify_principal_pairs([a1], 4)
        assert [lam.coords for _, lam in pairs] == [(2,), (4,), (6,), (8,)]

    def test_rank_two_scan(self):
        systems = [build_root_system(n) for n in ("A2", "B2", "G2")]
        pairs = idn.classify_principal_pairs(systems, 6)
        got = {(rs.name, lam.coords) for rs, lam in pairs}
        assert got == {("A2", (1, 1)),
                       ("B2", (0, 2)), ("B2", (1, 0)), ("B2", (2, 0)),
                       ("G2", (0, 1)), ("G2", (1, 0)), ("G2", (2, 0))}

    def test_zero_weight_excluded(self):
        a2 = build_root_system("A2")
        pairs = idn.classify_principal_pairs([a2], 6)
        assert all(not lam.is_zero() for _, lam in pairs)


class TestReports:
    def test_json_schema_and_stability(self):
        rs = build_root_system("B2")
        r1 = idn.verify_main_identity(rs, Weight((1, 0)), Weight((1, 0)))
        r2 = idn.verify_main_identity(rs, Weight((1, 0)), Weight((1, 0)))
        assert r1.to_json() == r2.to_json()
        payload = json.loads(r1.to_json())
        assert set(payload) == {"identity", "root_system", "inputs", "status",
                                "failures", "details"}
        assert payload["status"] == "pass"
        assert payload["inputs"] == {"lambda": [1, 0], "gamma": [1, 0]}

    def test_failure_entries_recorded(self):
        failures = []
        idn._expect(failures, "demo", Weight((1, 0)), QPoly.q(), QPoly.q(2))
        assert failures == [{"check": "demo", "mu": "(1,0)",
                             "expected": "1*q^1", "actual": "1*q^2"}]
        report = Report(identity="demo", root_system="A2", inputs={},
                        status="fail", failures=failures)
        assert not report.passed
        assert json.loads(report.to_json())["failures"][0]["check"] == "demo"

    def test_defaults_are_fresh_per_report(self):
        a = Report(identity="demo", root_system="A2", inputs={}, status="pass")
        b = Report("demo", "A2", {}, "pass")
        assert a.failures == [] and a.details == {}
        assert a.failures is not b.failures and a.details is not b.details
        a.failures.append({"check": "demo"})
        a.details["n"] = 1
        assert b.failures == [] and b.details == {}
        assert a != b
        assert b == Report("demo", "A2", {}, "pass", [], {})
        assert b != b.to_dict()

    def test_to_json_bytes(self):
        # the bytes the report wrote as a dataclass
        report = Report(identity="main", root_system="B2",
                        inputs={"lambda": [1, 0], "gamma": [0, 1]}, status="fail",
                        failures=[{"check": "x", "mu": "(0,0)", "expected": "0",
                                   "actual": "1*q^1"}],
                        details={"value": "1*q^2"})
        assert report.to_json() == (
            '{"details": {"value": "1*q^2"}, "failures": [{"actual": "1*q^1", '
            '"check": "x", "expected": "0", "mu": "(0,0)"}], "identity": "main", '
            '"inputs": {"gamma": [0, 1], "lambda": [1, 0]}, "root_system": "B2", '
            '"status": "fail"}')
        assert list(report.to_dict()) == ["identity", "root_system", "inputs",
                                          "status", "failures", "details"]
        assert repr(Report("a", "A2", {}, "pass")) == (
            "Report(identity='a', root_system='A2', inputs={}, status='pass', "
            "failures=[], details={})")

    def test_equal_polynomials_record_nothing(self):
        failures = []
        idn._expect(failures, "demo", "mu", QPoly.q(), QPoly.q())
        assert failures == []


class TestFaultInjection:
    """A wrong q-analogue at one negative root fails the merged adjoint
    verifier under the check name of each module."""

    B3 = build_root_system("B3")
    # -alpha_3, a short root: a weight of both the adjoint and the
    # little-adjoint module
    TARGET = -B3.simple_roots[2]

    @pytest.fixture
    def perturbed(self, monkeypatch):
        real = idn.lusztig_q_analogue

        def wrong(rs, lam, mu):
            got = real(rs, lam, mu)
            return got + QPoly.one() if mu == self.TARGET else got

        monkeypatch.setattr(idn, "lusztig_q_analogue", wrong)

    @pytest.mark.parametrize("verify,check", [
        (idn.verify_adjoint, "negative root"),
        (idn.verify_little_adjoint, "negative short root"),
    ])
    def test_negative_root_failure_names_mu(self, perturbed, verify, check):
        report = verify(self.B3)
        assert not report.passed
        at_target = [f for f in report.failures if f["mu"] == str(self.TARGET)]
        assert [f["check"] for f in at_target] == [check]
        assert at_target[0]["actual"] != at_target[0]["expected"]
        # the plain sum over the weights sees the same error; nothing else does
        assert sorted(f["check"] for f in report.failures) == sorted(
            [check, "plain sum over all weights"])

    A2 = build_root_system("A2")

    @staticmethod
    def wrap(monkeypatch, name, change):
        """Replace ``idn.<name>`` by its value passed through
        ``change(value, *args)``."""
        real = getattr(idn, name)
        monkeypatch.setattr(idn, name, lambda *args: change(real(*args), *args))

    @pytest.mark.parametrize("verify,label", [
        (idn.verify_adjoint, ""),
        (idn.verify_little_adjoint, "short "),
    ])
    def test_constant_term_at_zero(self, monkeypatch, verify, label):
        # m^0 gains the exponent 0: its exponents are no longer dual to the
        # height counts, and m^0 shifted by ht(top) - h has a negative one
        self.wrap(monkeypatch, "lusztig_q_analogue",
                  lambda got, rs, lam, mu: got + QPoly.one() if mu.is_zero() else got)
        report = verify(self.B3)
        assert sorted(f["check"] for f in report.failures) == sorted([
            f"zero-weight {label}exponents", f"exponents are dual to {label}height counts",
            "shifted zero-weight polynomial", "plain sum over all weights"])

    def test_main_mismatch(self, monkeypatch):
        self.wrap(monkeypatch, "tensor_zero_q", lambda got, *args: got + QPoly.one())
        report = idn.verify_main_identity(self.A2, self.A2.theta, self.A2.theta)
        assert [(f["check"], f["mu"]) for f in report.failures] == [
            ("tensor zero-weight analogue", "lambda=(1,1), gamma=(1,1)")]

    @pytest.mark.parametrize("name,change,checks", [
        # one more weight, 2 alpha_1 + alpha_2 = (3,0) at height 3, which is
        # not a multiple of a root
        ("character", lambda ch, rs, lam: WeightMultiset({**ch, Weight((3, 0)): 1}),
         ["weight is a multiple of a root", "height product identity",
          "exponents dual to height counts"]),
        # the exponents 1 3 in place of 1 2
        ("generalized_exponents", lambda exps, rs, lam: exps[:-1] + [exps[-1] + 1],
         ["height product identity", "exponents dual to height counts"]),
    ])
    def test_height_duality(self, monkeypatch, name, change, checks):
        self.wrap(monkeypatch, name, change)
        report = idn.verify_height_duality(self.A2, self.A2.theta)
        assert report.details["hypothesis_holds"]
        assert [f["check"] for f in report.failures] == checks

    def test_subregular_series_negative(self, monkeypatch):
        # m^alpha two too large at the simple root alpha_1, so q m^alpha
        # exceeds m^0 = q + q^2
        alpha = self.A2.simple_roots[0]
        self.wrap(monkeypatch, "lusztig_q_analogue",
                  lambda got, rs, lam, mu: got + 2 * QPoly.one() if mu == alpha else got)
        report = idn.verify_subregular_identity(self.A2, self.A2.theta, 0)
        assert [f["check"] for f in report.failures] == [
            "orbit transport", "crossing zero", "subregular series nonnegative"]
        assert report.failures[-1]["actual"] == "-1*q^1"


@pytest.mark.parametrize("name,coords,expected", [
    ("A2", (1, 0), False),  # omega_1, off the root lattice
    ("A2", (0, 0), True),
    ("A2", (3, -3), False),  # alpha_1 - alpha_2, of mixed signs
    ("A2", (2, 2), True),  # 2 theta
    ("B2", (0, 1), False),  # omega_2, off the root lattice
    ("B2", (0, 0), True),
    ("B2", (3, -4), False),  # alpha_1 - alpha_2
    ("B2", (-2, 4), True),  # 2 alpha_2
    ("G2", (0, 0), True),
    ("G2", (5, -3), False),  # alpha_1 - alpha_2
    ("G2", (1, 1), False),  # 5 alpha_1 + 3 alpha_2, not a multiple of a root
    ("G2", (-2, 1), True),  # -alpha_1
])
def test_is_root_multiple(name, coords, expected):
    assert idn._is_root_multiple(build_root_system(name), Weight(coords)) is expected
