"""Tests for growth fitting, syntactic classification and the separation demos."""

import math

import pytest

from repro.complexity.classify import classify
from repro.complexity.fit import (
    best_fit,
    doubling_ratios,
    fit_model,
    growth_class,
    is_polylog,
    is_polynomial_not_exponential,
)
from repro.complexity.separations import (
    arithmetic_blowup,
    bounded_arithmetic_growth,
    bounded_powerset_growth,
    dcr_vs_sri_depth,
    powerset_growth,
)
from repro.nra.ast import (
    Bdcr,
    BoolConst,
    EmptySet,
    Lambda,
    Singleton,
    Union,
    Var,
    lam2,
)
from repro.objects.types import BASE, SetType
from repro.relational.queries import (
    parity_dcr,
    transitive_closure_dcr,
    transitive_closure_sri,
)


NS = [8, 16, 32, 64, 128, 256]
SERIES = {
    "log-noisy": (NS, [3.1, 4.0, 5.2, 5.9, 7.1, 8.0]),
    "linear-noisy": (NS, [17, 35, 62, 131, 260, 515]),
    "quadratic-noisy": (NS, [60, 270, 1000, 4200, 16300, 65600]),
    "log2-exact": (NS, [math.log2(n + 1) ** 2 for n in NS]),
    "depth-steps": ([16, 32, 64, 128, 256, 512, 1024], [5, 6, 7, 8, 9, 10, 11]),
    "two-point": ([4, 16], [2, 5]),
}

#: ``(coefficient, offset, residual)`` per series and model, recorded at 874745a.
FITS = {
    'log-noisy': {
        'constant': (0.0, 5.550000000000001, 1.6859715300087366),
        'log': (1.0166621964419353, -0.09942264959807844, 0.09556155410704795),
        'log^2': (0.08942869074358303, 2.54343819333888, 0.25089037814580806),
        'log^3': (0.009743074619260415, 3.4314315718377757, 0.4256647776177921),
        'linear': (0.017599502487562185, 4.071641791044777, 0.7198557990847566),
        'n log n': (0.0020787355299813027, 4.308132930307724, 0.8065065386206467),
        'n^2': (5.634966275488324e-05, 4.7295489102889015, 1.0445824436482882),
        'n^3': (1.9774547337717517e-07, 4.918075073493177, 1.1740012928356345),
    },
    'linear-noisy': {
        'constant': (0.0, 170.0, 174.13787640832192),
        'log': (95.84887774565647, -362.6162640550144, 71.69420306530618),
        'log^2': (8.909746252954239, -129.54260280945027, 52.28745680931911),
        'log^3': (1.0198944284610858, -51.769433226431914, 34.091608130210204),
        'linear': (2.0101279317697225, 1.1492537313433024, 1.7972971889760072),
        'n log n': (0.24399596385197292, 24.233235409067323, 11.104995385218306),
        'n^2': (0.007182645661484994, 65.42067916877849, 43.2319453968924),
        'n^3': (2.6538895621966424e-05, 85.19103128345428, 62.85713649816939),
    },
    'quadratic-noisy': {
        'constant': (0.0, 14571.666666666666, 23500.942120594988),
        'log': (11263.09415985382, -48015.47336265979, 14301.955910924426),
        'log^2': (1078.5360931055618, -21688.345614340196, 12165.787431739374),
        'log^3': (126.81057614876669, -13002.471219411902, 10072.872219604747),
        'linear': (263.00373134328356, -7520.64676616915, 5765.013135377746),
        'n log n': (32.407511155141535, -4789.05543279991, 4418.209549643933),
        'n^2': (1.000665868807658, 1.9716168271690335, 58.412378087010694),
        'n^3': (0.0038122979248498387, 2388.9044277161333, 2843.140000866968),
    },
    'log2-exact': {
        'constant': (0.0, 33.61965585833937, 18.64278051885198),
        'log': (11.171770481033727, -28.460013684353015, 2.328370202831459),
        'log^2': (1.0, -6.6622579285194066e-15, 6.486338074120659e-15),
        'log^3': (0.11065016785239797, 9.559494015841258, 2.0750152323401077),
        'linear': (0.20518078796828287, 16.384469669003614, 5.6250511745619605),
        'n log n': (0.024440319857100552, 19.018650600324463, 6.673643775769862),
        'n^2': (0.0006793259762765814, 23.72866964375234, 9.644639562083771),
        'n^3': (2.4219454167317336e-06, 25.879970831251438, 11.309633512965705),
    },
    'depth-steps': {
        'constant': (0.0, 8.0, 2.0),
        'log': (1.0129047238048736, 0.8843009357080668, 0.013907246920060073),
        'log^2': (0.07082748579872704, 4.228453028597324, 0.25315098462099517),
        'log^3': (0.006169495040314081, 5.3533614190095875, 0.46445507374106787),
        'linear': (0.0051673228346456644, 6.499999999999998, 0.9577697190064371),
        'n log n': (0.0004956341825861995, 6.696481263617397, 1.0443928348074563),
        'n^2': (4.172579808337909e-06, 7.166666666666666, 1.3331998040931947),
        'n^3': (3.6670843861505455e-09, 7.357142857142857, 1.470803576401082),
    },
    'two-point': {
        'constant': (0.0, 3.5, 1.5),
        'log': (1.69920190252842, -1.945424636366798, 1.88411095042053e-15),
        'log^2': (0.265111290520275, 0.5706922232206312, 7.021666937153402e-16),
        'log^3': (0.05379008988116231, 1.3266380539390343, 1.6910413304902302e-15),
        'linear': (0.24999999999999983, 1.0000000000000004, 1.2658490090568385e-15),
        'n log n': (0.053464792012218154, 1.5034343893580866, 1.4043333874306805e-15),
        'n^2': (0.012499999999999999, 1.7999999999999998, 1.5700924586837752e-16),
        'n^3': (0.0007440476190476198, 1.9523809523809526, 2.5121479338940403e-15),
    },
}

#: ``growth_class`` per series, recorded at 874745a.
VERDICTS = {
    'log-noisy': 'log',
    'linear-noisy': 'linear',
    'quadratic-noisy': 'n^2',
    'log2-exact': 'log^2',
    'depth-steps': 'log',
    'two-point': 'log',
}


def close_to(recorded: float):
    """Within 1e-9 of the recorded value: relative, or absolute for the
    rounding noise an exact fit leaves in place of a zero."""
    if abs(recorded) < 1e-12:
        return pytest.approx(recorded, rel=0, abs=1e-9)
    return pytest.approx(recorded, rel=1e-9, abs=0)


@pytest.mark.parametrize("series", sorted(SERIES))
def test_fits_keep_their_recorded_values(series):
    ns, ys = SERIES[series]
    for model, (a, b, residual) in FITS[series].items():
        fit = fit_model(model, ns, ys)
        assert (fit.coefficient, fit.offset, fit.residual) == (
            close_to(a), close_to(b), close_to(residual)), model


@pytest.mark.parametrize("series", sorted(SERIES))
def test_growth_class_keeps_its_recorded_verdict(series):
    assert growth_class(*SERIES[series]) == VERDICTS[series]


def test_one_distinct_basis_value_takes_the_minimum_norm_fit():
    fit = fit_model("linear", [3, 3, 3], [1, 2, 6])
    assert (fit.coefficient, fit.offset) == (pytest.approx(0.9), pytest.approx(0.3))


class TestFitting:
    NS = [8, 16, 32, 64, 128, 256]

    def test_recovers_logarithmic_series(self):
        ys = [math.log2(n + 1) * 3 + 1 for n in self.NS]
        assert growth_class(self.NS, ys) == "log"

    def test_recovers_linear_series(self):
        ys = [2 * n + 5 for n in self.NS]
        assert growth_class(self.NS, ys) == "linear"

    def test_recovers_quadratic_series(self):
        ys = [n * n for n in self.NS]
        assert growth_class(self.NS, ys) == "n^2"

    def test_recovers_constant_series(self):
        assert growth_class(self.NS, [7] * len(self.NS)) == "constant"

    def test_log_squared(self):
        ys = [math.log2(n + 1) ** 2 for n in self.NS]
        assert growth_class(self.NS, ys) in ("log^2",)

    def test_fit_model_coefficient(self):
        fit = fit_model("linear", self.NS, [3 * n for n in self.NS])
        assert fit.coefficient == pytest.approx(3, rel=1e-6)
        assert fit.predict(1000) == pytest.approx(3000, rel=1e-3)

    def test_fit_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_model("log", [4], [1])

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            fit_model("exp", self.NS, self.NS)

    def test_is_polylog_distinguishes(self):
        log_ys = [math.log2(n + 1) for n in self.NS]
        lin_ys = list(self.NS)
        assert is_polylog(self.NS, log_ys)
        assert not is_polylog(self.NS, lin_ys)

    def test_doubling_ratios(self):
        assert doubling_ratios([1, 2, 4]) == [2.0, 2.0]

    def test_polynomial_vs_exponential(self):
        # On a geometric grid of n, polynomial series have bounded doubling
        # ratios while exponential series have ratios that themselves explode.
        geometric_ns = [2, 4, 8, 16, 32]
        poly = [n ** 2 for n in geometric_ns]
        expo = [2 ** n for n in geometric_ns]
        assert is_polynomial_not_exponential(geometric_ns, poly)
        assert not is_polynomial_not_exponential(geometric_ns, expo)


class TestClassification:
    def test_tc_dcr_is_ac1(self):
        report = classify(transitive_closure_dcr())
        assert report.nesting_depth == 1
        assert report.flat
        assert "AC^1" in report.parallel_class

    def test_parity_is_ac1(self):
        assert "AC^1" in classify(parity_dcr()).parallel_class

    def test_sri_query_gets_only_ptime(self):
        report = classify(transitive_closure_sri())
        assert report.uses_insert_recursion
        assert "PTIME" in report.sequential_class
        assert "no NC bound" in report.parallel_class

    def test_recursion_free_is_ac0(self):
        report = classify(Singleton(BoolConst(True)))
        assert report.nesting_depth == 0
        assert "AC^0" in report.parallel_class

    def test_bounded_nested_query_keeps_ack(self):
        q = Bdcr(
            EmptySet(BASE),
            Lambda("x", BASE, Singleton(Var("x"))),
            lam2("a", SetType(BASE), "b", SetType(BASE), Union(Var("a"), Var("b"))),
            EmptySet(BASE),
        )
        report = classify(q)
        assert report.bounded_only
        assert "AC^1" in report.parallel_class

    def test_report_renders_as_text(self):
        text = str(classify(transitive_closure_dcr()))
        assert "nesting depth" in text and "AC^1" in text


class TestSeparations:
    def test_powerset_growth_is_exponential(self):
        growth = powerset_growth([2, 4, 6, 8])
        assert [size for _, size in growth] == [4, 16, 64, 256]

    def test_bounded_powerset_growth_is_linear(self):
        growth = bounded_powerset_growth([2, 4, 6, 8])
        assert all(size <= n + 1 for n, size in growth)

    def test_arithmetic_blowup_doubles_bits_each_round(self):
        # geometric grid of iteration counts, so the exponential shape shows
        # up as exploding doubling ratios
        growth = arithmetic_blowup([2, 4, 8, 16])
        bits = [b for _, b in growth]
        assert bits[1] / bits[0] > 3
        assert not is_polynomial_not_exponential([n for n, _ in growth], bits)

    def test_bounded_arithmetic_stays_flat(self):
        growth = bounded_arithmetic_growth([2, 4, 6, 8])
        bits = [b for _, b in growth]
        assert max(bits) - min(bits) <= 14

    def test_dcr_vs_sri_depth_contrast(self):
        rows = dcr_vs_sri_depth([8, 64, 512])
        for n, dcr_depth, sri_depth in rows:
            assert dcr_depth <= math.log2(n) + 2
            assert sri_depth == n
