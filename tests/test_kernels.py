import math
import random
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seqstop import kernels
from seqstop.kernels import NEG_INF, mb, mb_massart, mg, mp, phi, psi, varphi

# reference values frozen from 40-digit decimal evaluations of the
# closed forms
MB_03_05 = -0.0822828785050518463915611582607958826145
MASSART_03_05 = -0.0814479638009049773755656108597285067873
MG_2_3 = -0.1177830356563834545387941094705217050683
MP_2_1 = -0.3862943611198906188344642429163531361510
PHI_02_05 = 0.1927447570217574298840441825650714374707
VARPHI_02_04_02 = 0.1076679216920666549664099587336212771811


class TestBernoulliKernel:
    def test_zero_at_matching_arguments(self):
        assert mb(0.5, 0.5) == 0.0

    def test_left_edge_branch(self):
        assert mb(0.0, 0.3) == pytest.approx(math.log(0.7), abs=1e-15)

    def test_right_edge_branch(self):
        assert mb(1.0, 0.3) == pytest.approx(math.log(0.3), abs=1e-15)

    def test_interior_value(self):
        assert mb(0.3, 0.5) == pytest.approx(MB_03_05, abs=1e-15)

    def test_out_of_range_reference_is_neg_inf(self):
        assert mb(0.3, 1.2) == NEG_INF
        assert mb(0.3, 0.0) == NEG_INF
        assert mb(0.3, -0.5) == NEG_INF

    def test_out_of_range_z_raises(self):
        with pytest.raises(ValueError):
            mb(-0.1, 0.5)
        with pytest.raises(ValueError):
            mb(1.1, 0.5)

    def test_nonpositive_and_symmetric(self):
        rng = random.Random(7)
        for _ in range(500):
            z = rng.random()
            theta = rng.uniform(1e-6, 1 - 1e-6)
            v = mb(z, theta)
            assert v <= 0.0
            assert v == pytest.approx(mb(1.0 - z, 1.0 - theta), abs=1e-12)


class TestMassartSurrogate:
    def test_zero_at_matching_arguments(self):
        assert mb_massart(0.5, 0.5) == 0.0

    def test_interior_value(self):
        assert mb_massart(0.3, 0.5) == pytest.approx(MASSART_03_05, abs=1e-15)

    def test_neg_inf_branch(self):
        assert mb_massart(0.4, -0.1) == NEG_INF

    def test_dominates_mb(self):
        rng = random.Random(11)
        for _ in range(1000):
            z = rng.random()
            theta = rng.uniform(1e-6, 1 - 1e-6)
            assert mb(z, theta) <= mb_massart(z, theta) + 1e-12


class TestGeometricKernel:
    def test_zero_at_matching_arguments(self):
        assert mg(2.0, 2.0) == 0.0

    def test_unit_z_branch(self):
        assert mg(1.0, 3.0) == pytest.approx(-math.log(3.0), abs=1e-15)

    def test_interior_value(self):
        assert mg(2.0, 3.0) == pytest.approx(MG_2_3, abs=1e-15)

    def test_domain(self):
        assert mg(2.0, 1.0) == NEG_INF
        assert mg(2.0, 0.5) == NEG_INF
        with pytest.raises(ValueError):
            mg(0.9, 2.0)

    @staticmethod
    def _exact(z, theta):
        """mg's defining formula in 400-digit decimals, where the order-z
        terms, up to 1e309, cancel without loss."""
        with localcontext() as ctx:
            ctx.prec = 400
            z, theta = Decimal(z), Decimal(theta)
            return float(z * (z / theta).ln() +
                         (1 - z) * ((z - 1) / (theta - 1)).ln())

    def test_matches_exact_arithmetic_up_to_huge_means(self):
        # the two terms grow like z and cancel to a result of order 1:
        # taken as written in floats, the error reached 1.0 here
        rng = random.Random(29)
        for _ in range(500):
            z = 1.0 + 10 ** rng.uniform(-12, 307)
            theta = 1.0 + 10 ** rng.uniform(-12, 307)
            exact = self._exact(z, theta)
            assert abs(mg(z, theta) - exact) <= \
                1e-15 * max(1.0, abs(exact)), (z, theta)
        # rule D's own arguments, theta = (1 + eps) z: relative error
        for _ in range(300):
            z = 10 ** rng.uniform(0.001, 300)
            theta = (1.0 + rng.choice([0.01, 0.1, 0.2, 0.5])) * z
            exact = self._exact(z, theta)
            assert abs(mg(z, theta) - exact) <= 1e-11 * abs(exact), z


class TestPoissonKernel:
    def test_zero_at_matching_arguments(self):
        assert mp(4.0, 4.0) == 0.0

    def test_zero_z_branch(self):
        assert mp(0.0, 2.5) == -2.5

    def test_interior_value(self):
        assert mp(2.0, 1.0) == pytest.approx(MP_2_1, abs=1e-15)

    def test_domain(self):
        assert mp(1.0, 0.0) == NEG_INF
        assert mp(1.0, -3.0) == NEG_INF
        with pytest.raises(ValueError):
            mp(-0.5, 1.0)

    def test_nonpositive(self):
        rng = random.Random(3)
        for _ in range(500):
            z = rng.uniform(0.0, 10.0)
            theta = rng.uniform(1e-6, 10.0)
            assert mp(z, theta) <= 0.0


class TestPhi:
    def test_zero_at_matching_arguments(self):
        assert phi(0.5, 0.5) == 0.0

    def test_interior_value(self):
        assert phi(0.2, 0.5) == pytest.approx(PHI_02_05, abs=1e-15)

    def test_negation_of_mb_on_grid(self):
        for i in range(1, 100):
            for j in range(1, 100):
                z, theta = i / 100.0, j / 100.0
                assert phi(z, theta) == pytest.approx(-mb(z, theta),
                                                      abs=1e-12)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                phi(bad, 0.5)
            with pytest.raises(ValueError):
                phi(0.5, bad)


class TestVarphiPsi:
    def test_interior_value(self):
        assert varphi(0.2, 0.4, 0.2) == pytest.approx(VARPHI_02_04_02,
                                                      abs=1e-15)

    def test_limit_toward_nu_vanishes(self):
        assert abs(varphi(0.3 - 1e-12, 0.3, 0.1)) < 1e-9
        assert abs(psi(0.4 + 1e-12, 0.4, 0.1)) < 1e-9

    def test_psi_reflection_identity(self):
        assert psi(0.6, 0.4, 0.2) == varphi(0.4, 0.6, 0.2)
        rng = random.Random(5)
        for _ in range(200):
            nu = rng.uniform(0.05, 0.9)
            z = rng.uniform(nu + 1e-6, 1.0)
            th = rng.uniform(1e-6, 0.25)
            assert psi(z, nu, th) == varphi(1.0 - z, 1.0 - nu, th)

    def test_reduces_to_phi_at_variance_envelope(self):
        # with the variance bound at its envelope value the three-argument
        # exponent collapses to the two-argument one
        rng = random.Random(9)
        for _ in range(300):
            nu = rng.uniform(0.05, 0.95)
            z = rng.uniform(1e-6, nu - 1e-6)
            assert varphi(z, nu, nu * (1 - nu)) == pytest.approx(
                phi(z, nu), abs=1e-12)

    def test_dominates_phi_below_envelope(self):
        rng = random.Random(13)
        for _ in range(300):
            nu = rng.uniform(0.05, 0.95)
            z = rng.uniform(1e-4, nu - 1e-4)
            th = rng.uniform(1e-6, nu * (1 - nu))
            assert varphi(z, nu, th) >= phi(z, nu) - 1e-12
        for _ in range(300):
            nu = rng.uniform(0.05, 0.95)
            z = rng.uniform(nu + 1e-4, 1 - 1e-4)
            th = rng.uniform(1e-6, nu * (1 - nu))
            assert psi(z, nu, th) >= phi(z, nu) - 1e-12

    def test_nonnegative(self):
        rng = random.Random(17)
        for _ in range(300):
            nu = rng.uniform(0.05, 0.95)
            z = rng.uniform(0.0, nu - 1e-6)
            th = rng.uniform(1e-6, 0.999)
            assert varphi(z, nu, th) >= 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            varphi(0.5, 0.4, 0.1)  # z above nu
        with pytest.raises(ValueError):
            varphi(0.4, 0.4, 0.1)  # z equal to nu
        with pytest.raises(ValueError):
            varphi(0.2, 0.4, 0.0)
        with pytest.raises(ValueError):
            psi(0.3, 0.4, 0.1)  # z below nu

    def test_psi_where_the_mirror_rounds(self):
        # nu < z, but 1 - z rounds onto 1 - nu: varphi's limit at z = nu
        nu = 0.18501001464252484
        z = math.nextafter(nu, 1.0)
        assert 1.0 - z == 1.0 - nu
        assert psi(z, nu, 0.1) == 0.0
        with pytest.raises(ValueError):
            psi(z, nu, 0.0)
        # 1 - nu rounds onto 1: varphi's continuous extension at nu = 1
        assert psi(0.5, 1e-17, 0.1) == varphi(0.5, 1.0, 0.1) > 0.0

    def test_shrunk_band_epsilon_monotonicity(self):
        # widening the acceptance band by epsilon hurts the upper edge no
        # more than the lower edge (kernel at the shrunk upper argument
        # dominates the kernel at the shrunk lower argument)
        rng = random.Random(41)
        for _ in range(500):
            e = rng.uniform(1e-3, 0.2)
            r = rng.uniform(1e-3, 1.0)
            y = rng.uniform(e + 1e-3, 0.5)
            assert mb(y + e - r * e, y + e) >= mb(y - e + r * e, y - e) - 1e-12
            yp = rng.uniform(e + 0.01, 10.0)
            assert mp(yp + e - r * e, yp + e) >= \
                mp(yp - e + r * e, yp - e) - 1e-12
            eg = rng.uniform(1e-3, 0.3)
            yg = rng.uniform(1.0 / (1.0 - eg) + 0.01, 10.0)
            assert mg((1 + eg - r * eg) * yg, (1 + eg) * yg) >= \
                mg((1 - eg + r * eg) * yg, (1 - eg) * yg) - 1e-12

    def test_no_nan_escapes(self):
        rng = random.Random(23)
        for _ in range(1000):
            z = rng.random()
            theta = rng.uniform(-1.0, 2.0)
            assert not math.isnan(mb(z, theta))
            assert not math.isnan(mp(z * 5, theta))


class TestExtendedReals:
    def test_non_finite_reference_is_neg_inf(self):
        assert mp(1.0, math.inf) == NEG_INF
        assert mp(1.0, math.nan) == NEG_INF
        assert mg(2.0, math.inf) == NEG_INF
        assert mg(2.0, math.nan) == NEG_INF

    def test_non_finite_z_raises(self):
        for z in (math.inf, math.nan):
            with pytest.raises(ValueError):
                mg(z, 2.0)
            with pytest.raises(ValueError):
                mp(z, 1.0)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=1000)
    @given(z=st.floats(), nu=st.floats(), theta=st.floats())
    @example(z=5e-324, nu=1.0, theta=0.5)
    @example(z=1e-320, nu=1.0, theta=0.5)
    def test_no_kernel_returns_nan(self, z, nu, theta):
        # (kernel, arguments, whether they lie in the kernel's domain):
        # inside it a kernel returns a value that is not NaN, outside it
        # the kernel may raise ValueError instead
        calls = [
            (mb, (z, theta), 0.0 <= z <= 1.0),
            (mb_massart, (z, theta), 0.0 <= z <= 1.0),
            (mg, (z, theta), 1.0 <= z < math.inf),
            (mp, (z, theta), 0.0 <= z < math.inf),
            (phi, (z, theta), 0.0 < z < 1.0 and 0.0 < theta < 1.0),
            (varphi, (z, nu, theta),
             0.0 <= z < nu <= 1.0 and theta > 0.0),
            (psi, (z, nu, theta), 0.0 < nu < z <= 1.0 and theta > 0.0),
        ]
        for kernel, args, in_domain in calls:
            try:
                value = kernel(*args)
            except ValueError:
                assert not in_domain, (kernel.__name__, args)
                continue
            assert not math.isnan(value), (kernel.__name__, args)
            if kernel is mb and in_domain:
                assert value <= 0.0, args
