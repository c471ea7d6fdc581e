import cmath
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from zerokit.dirichlet.characters import (
    char_label,
    char_value,
    char_value_vec,
    conjugate_character,
    enumerate_characters,
    exponent_key,
    primitive_characters,
)
from zerokit.dirichlet.hurwitz import hurwitz_bound, hurwitz_zeta_vec
from zerokit.dirichlet.lfunctions import completed_prefactor_phase, l_eval_vec, root_number
from zerokit.dirichlet.zerocache import CACHE_HEADER, ZeroLibrary, read_zero_cache, write_zero_cache
from zerokit.dirichlet.zeros import (
    TARGET_RADIUS,
    CountCertificationError,
    ModulusEngine,
    ZeroSet,
    _rotated_line,
    count_zeros_circle,
    scan_zeros,
)

from oracles import count_zeros, z_enclosure

ZETA = enumerate_characters(1)[0]
CHI4 = enumerate_characters(4)[1]


def _inflated_bound(s, a, d, modulus):
    """A stand-in for `hurwitz_bound` of 1 per entry, above every |Z| of a sign check."""
    return np.full(np.shape(s) + np.shape(d) + np.shape(a), 1.0)


class TestRecords:
    def test_zero_record_strip(self):
        with pytest.raises(ValueError):
            ZeroSet(ZETA, [1.0], [3.0], [TARGET_RADIUS], 5.0)

    def test_zero_set_ordering(self):
        with pytest.raises(ValueError):
            ZeroSet(ZETA, [0.5, 0.5], [2.0, 1.0], [TARGET_RADIUS] * 2, 5.0)

    def test_count_above_resolves_boundary_by_radius(self):
        zs = ZeroSet(ZETA, [0.5], [14.0], [1e-9], 20.0)
        assert zs.count_above(0.5, 20.0) == 1  # enclosure straddles the line
        assert zs.count_above(0.6, 20.0) == 0
        with pytest.raises(ValueError):
            zs.count_above(0.5, 30.0)

    def test_count_above_an_array_of_sigmas(self):
        zs = ZeroSet(ZETA, [0.5, 0.5, 0.5], [-14.0, 14.0, 21.0], [1e-9] * 3, 20.0)
        sigmas = np.array([0.4, 0.5, 0.6])
        counts = zs.count_above(sigmas, 15.0)
        assert counts.tolist() == [zs.count_above(float(sigma), 15.0) for sigma in sigmas] == [2, 2, 0]


class TestColumns:
    """A zero set is three read-only float64 columns sorted by ordinate."""

    def test_assigning_to_a_column_raises(self):
        zs = ZeroSet(ZETA, [0.5, 0.5], [-14.0, 14.0], [1e-9, 1e-8], 20.0)
        for column in (zs.beta, zs.gamma, zs.radius):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.25

    def test_the_set_keeps_its_own_copy(self):
        gamma = np.array([-14.0, 14.0])
        zs = ZeroSet(ZETA, [0.5, 0.5], gamma, [1e-9, 1e-9], 20.0)
        gamma[0] = -15.0
        assert zs.gamma.tolist() == [-14.0, 14.0]
        assert zs.gamma.dtype == zs.beta.dtype == zs.radius.dtype == np.float64

    def test_columns_of_one_length(self):
        with pytest.raises(ValueError, match="one length"):
            ZeroSet(ZETA, [0.5], [1.0, 2.0], [1e-9, 1e-9], 5.0)

    def test_mirrored_twice_returns_the_original_columns(self):
        chi = next(c for c in primitive_characters(5) if conjugate_character(c) != c)
        zs = scan_zeros(chi, 20.0)
        back = zs.mirrored(conjugate_character(chi)).mirrored(chi)
        for name in ("beta", "gamma", "radius"):
            assert np.array_equal(getattr(back, name), getattr(zs, name))
        assert back.character == chi and back.complete_to_height == zs.complete_to_height

    def test_record_view_matches_the_columns(self):
        zs = ZeroSet(ZETA, [0.5, 0.5], [-14.0, 14.0], [1e-9, 1e-8], 20.0)
        records = zs.zeros
        assert len(records) == 2 and [z.gamma for z in records] == [-14.0, 14.0]
        assert records.certified_radius.tolist() == [1e-9, 1e-8]
        with pytest.raises(ValueError, match="read-only"):
            records.gamma[0] = 0.0

    def test_writing_back_reproduces_the_library_files(self, zero_library, tmp_path):
        files = sorted(Path(zero_library.cache_dir).glob("zeros_q*.csv"))
        assert len(files) == 15  # the moduli <= 20 with primitive characters
        for path in files:
            q = int(path.stem[len("zeros_q") :])
            copy = write_zero_cache(tmp_path, read_zero_cache(zero_library.cache_dir, q))
            assert copy.read_bytes() == path.read_bytes(), path.name


class TestRectangleCounts:
    """Zeros in the rectangle 0 < beta < 1, |gamma| < T, from the half contour."""

    def test_zeta_first_window(self):
        assert count_zeros(ZETA, 15.0) == 2

    def test_zeta_below_first_zero(self):
        assert count_zeros(ZETA, 10.0) == 0

    def test_chi4_first_window(self):
        assert count_zeros(CHI4, 7.0) == 2

    def test_requires_primitive(self):
        with pytest.raises(ValueError):
            count_zeros(enumerate_characters(12)[0], 10.0)

    def test_monotone_in_height(self):
        counts = [count_zeros(ZETA, t) for t in (10.0, 15.0, 22.0, 30.0)]
        assert counts == sorted(counts)
        assert counts[-1] >= 6

    @pytest.mark.parametrize("T", [20.0, 51.0, 100.5, 300.0])
    def test_zeta_against_mpmath_nzeros(self, T):
        # independent oracle: mpmath counts the zeros with 0 < gamma < T
        import mpmath as mp

        assert count_zeros(ZETA, T) == 2 * mp.nzeros(T)

    def test_one_count_for_a_modulus_matches_one_character_counts(self):
        # 198 units mod 199: the shared contour's table comes in several
        # chunks.  Each character takes the first height 5 + 0.05 ((c + i)
        # mod 11) its own count certifies; at 5 + 0.05 (c mod 11) itself, 24
        # of the 197 counts meet a horizontal phase step above one radian.
        chars = primitive_characters(199)
        heights, counts = [], []
        for c, chi in enumerate(chars):
            for i in range(11):
                height = 5.0 + 0.05 * ((c + i) % 11)
                try:
                    counts.append(count_zeros(chi, height))
                except CountCertificationError:
                    continue
                heights.append(height)
                break
        assert len(heights) == len(chars)
        assert len(set(heights)) == 11
        assert ModulusEngine(chars, 5.0)._counts(heights) == counts

    @pytest.mark.parametrize("T", [5.3, 51.0, 300.0])
    @pytest.mark.parametrize("q, picks", [(1, None), (4, None), (5, None), (13, None), (199, (0, 1, 98))])
    def test_right_edge_closed_form_against_a_dense_edge(self, q, picks, T):
        # The reference path: L(5/4 + it) from the pointwise Hurwitz kernel,
        # summed over the units as l_eval_vec sums them, at step <= 0.01 on
        # t >= 0 (H(conj s, a) = conj H(s, a)), rotated by the prefactor
        # phase and unwrapped.  Mod 199: two complex characters of either
        # parity and the real one.
        import mpmath as mp

        import zerokit.dirichlet.zeros as zmod

        chars = primitive_characters(q)
        if picks:
            chars = tuple(chars[k] for k in picks)
        values = np.array([char_value_vec(chi, np.arange(1, q + 1)) for chi in chars]).T
        units = np.flatnonzero(np.any(values != 0.0, axis=1)) + 1
        ts = np.linspace(0.0, T, int(math.ceil(T / 0.01)) + 1)
        table = np.concatenate(
            [hurwitz_zeta_vec(zmod.RIGHT + 1j * part, units / q) for part in np.array_split(ts, len(ts) // 500 + 1)]
        )
        weights = values[units - 1]
        s = zmod.RIGHT + 1j * np.concatenate([-ts[:0:-1], ts])
        L = np.exp(-s[:, None] * math.log(q)) * np.concatenate([(table[:0:-1] @ weights.conj()).conj(), table @ weights])
        ends = np.array([l_eval_vec(s[[0, -1]], chi) for chi in chars]).T
        assert L[[0, -1]] == pytest.approx(ends, rel=1e-12)
        theta = np.array([completed_prefactor_phase(s, chi) for chi in chars]).T
        dense = np.unwrap(np.angle(np.exp(1j * theta) * L), axis=0)
        assert np.max(np.abs(np.angle(L))) <= math.log(mp.zeta(1.25))

        engine = ModulusEngine(chars, T)
        cols = np.arange(len(chars))
        sums = engine._bank(cols, np.array([1j * T]), np.array([zmod.RIGHT]))
        upper, lower = engine._turn(cols, np.array([zmod.RIGHT + 1j * T]), *sums)
        closed = engine._right_edge(np.full(len(chars), T), upper[0], lower[0])
        assert closed == pytest.approx(dense[-1] - dense[0], abs=1e-9)

    def test_boundary_on_zero_is_perturbed_upward(self):
        # The requested height sits 1.4e-7 below the first ordinate.  A count
        # there refuses the edge; the scan moves its count edge upward, clear
        # of the zero, and still stores the set to the height asked for.
        # Just above the ordinate the pair is stored.
        with pytest.raises(CountCertificationError):
            count_zeros(ZETA, 14.134725)
        zs = scan_zeros(ZETA, 14.134725)
        assert zs.certified
        assert len(zs.gamma) == 0
        assert zs.complete_to_height == 14.134725
        above = scan_zeros(ZETA, 14.1347252)
        assert above.certified
        assert len(above.gamma) == 2
        assert above.complete_to_height == 14.1347252


class TestScan:
    def test_zeta_first_ordinate(self):
        zs = scan_zeros(ZETA, 15.0)
        assert zs.certified
        positive = [z.gamma for z in zs.zeros if z.gamma > 0]
        assert len(positive) == 1
        assert positive[0] == pytest.approx(14.134725, abs=1e-6)
        assert all(z.certified_radius <= 1e-9 for z in zs.zeros)

    def test_chi4_first_ordinate(self):
        zs = scan_zeros(CHI4, 10.0)
        positive = [z.gamma for z in zs.zeros if z.gamma > 0]
        assert positive[0] == pytest.approx(6.020949, abs=1e-6)

    def test_empty_window(self):
        zs = scan_zeros(CHI4, 0.5)
        assert len(zs.gamma) == 0
        assert zs.certified
        assert zs.complete_to_height >= 0.5

    def test_a_height_past_the_exact_lattice_is_refused(self):
        # The nodes k GRID_STEP / 4 are exact floats below 2^31 alone, and the
        # lattice runs EDGE_CANDIDATES + NODES nodes past the height: the
        # engine refuses from MAX_HEIGHT up, before it evaluates anything.
        import zerokit.dirichlet.zeros as zmod

        with pytest.raises(ValueError, match="MAX_HEIGHT"):
            scan_zeros(CHI4, 1e10)
        with pytest.raises(ValueError, match="MAX_HEIGHT"):
            ModulusEngine((CHI4,), zmod.MAX_HEIGHT)
        assert ModulusEngine((CHI4,), np.nextafter(zmod.MAX_HEIGHT, 0.0)).height < 2.0**31

    def test_real_character_symmetry(self):
        zs = scan_zeros(ZETA, 30.0)
        gammas = [z.gamma for z in zs.zeros]
        assert gammas == sorted(gammas)
        positive = [g for g in gammas if g > 0]
        negative = [-g for g in reversed(gammas) if g < 0]
        assert positive == pytest.approx(negative, abs=1e-12)

    def test_zeta_ordinates_against_mpmath(self):
        # independent implementation cross-check for the first few ordinates
        import mpmath as mp

        mp.mp.dps = 20
        zs = scan_zeros(ZETA, 33.0)
        positive = [z.gamma for z in zs.zeros if z.gamma > 0]
        reference = [float(mp.zetazero(k).imag) for k in range(1, len(positive) + 1)]
        assert positive == pytest.approx(reference, abs=1e-8)

    def test_complex_character_scan_counts(self, zero_library):
        # complex characters have asymmetric ordinates but paired sets with
        # their conjugates
        chi = next(c for c in primitive_characters(5) if conjugate_character(c) != c)
        zs = zero_library.get(chi, 50.0)
        zs_bar = zero_library.get(conjugate_character(chi), 50.0)
        mirrored = sorted(-z.gamma for z in zs_bar.zeros)
        assert [z.gamma for z in zs.zeros] == pytest.approx(mirrored, abs=1e-12)

    def test_count_mismatch_becomes_unverified_window(self, monkeypatch):
        # force the winding count to disagree: the scan must flag the window
        # instead of raising or silently accepting
        import zerokit.dirichlet.zeros as zmod

        monkeypatch.setattr(zmod.ModulusEngine, "_counts", lambda engine, t_eff: [99] * len(t_eff))
        with pytest.warns(UserWarning, match="winding count"):
            zs = scan_zeros(CHI4, 10.0)
        assert not zs.certified
        assert zs.unverified_windows

    def test_refused_count_leaves_its_siblings_certified(self, monkeypatch, tmp_path):
        # Mod 5 the engine scans two characters.  Alternating the sign of the
        # first one's values along the count's horizontal edges makes every
        # phase step there pi: its count alone is refused, it becomes the
        # unverified window (-t_eff, t_eff), and the other character is still
        # certified and written to the cache.
        import zerokit.dirichlet.zeros as zmod

        bank = zmod.ModulusEngine._bank

        def jagged(engine, cols, c, d):
            upper, lower = bank(engine, cols, c, d)
            # The scan's bank climbs the critical line in baby steps d; the
            # count's offsets d are real, the edge abscissae.  Its rows are
            # the points c_p + d_q, each height's edge from 1/2 to the
            # corner on Re s = RIGHT.  The points strictly between are
            # flipped; the corners, which give the right edge, are not.
            if np.any(d.imag != 0.0):
                return upper, lower
            s = (c[:, None] + d).ravel()
            assert np.all((s.real >= 0.5) & (s.real <= zmod.RIGHT))
            edge = np.flatnonzero((s.real > 0.5) & (s.real < zmod.RIGHT))
            sign = np.where(edge % 2 == 0, 1.0, -1.0)
            upper[edge, 0] *= sign
            lower[edge, 0] *= sign
            return upper, lower

        monkeypatch.setattr(zmod.ModulusEngine, "_bank", jagged)
        with pytest.raises(CountCertificationError, match="phase step on a horizontal edge at height 20.0 exceeds one radian"):
            count_zeros(primitive_characters(5)[0], 20.0)

        library = ZeroLibrary(tmp_path)
        with pytest.warns(UserWarning, match="has no certified winding count"):
            library.ensure(5, 20.0)
        certified, refused = [], []
        for chi in primitive_characters(5):
            try:
                certified.append(library.get(chi, 20.0))
            except CountCertificationError as exc:
                # the window is (-t_eff, t_eff), t_eff a lattice node among 20, 20.05, ..., 20.5
                assert re.search(r"not certified: unverified windows \(\(-(2\d\.\d+), \1\),\)", str(exc))
                refused.append(chi)
        assert certified and refused
        cached = read_zero_cache(tmp_path, 5)
        assert sorted(cached) == sorted(zs.character.exponents for zs in certified)
        assert all(zs.certified and len(zs.gamma) for zs in cached.values())
        monkeypatch.undo()
        summary = ZeroLibrary(tmp_path).ensure(5, 20.0)
        assert sorted(label for label, n in summary.items() if n == "cached") == sorted(
            char_label(zs.character) for zs in certified
        )

    def test_sign_check_within_error_radius_becomes_unverified_window(self, monkeypatch):
        # The Hurwitz bound enters every radius: the interpolant's through
        # the lattice's node error, the kernel check's directly.  Forced
        # above every |Z| at gamma -/+ r, it must send every ordinate from
        # the interpolant to the kernel and leave a window around each at
        # every offset, never accept a check.
        import zerokit.dirichlet.zeros as zmod

        monkeypatch.setattr(zmod, "hurwitz_bound", _inflated_bound)
        engine = ModulusEngine((CHI4,), 12.0)
        with pytest.warns(UserWarning, match="failed the sign check"):
            zs = scan_zeros(CHI4, 12.0, engine)
        assert engine.certificates["interpolant"] == 0
        assert not zs.certified
        assert len(zs.unverified_windows) == len(zs.zeros) == 4
        for z, (lo, hi) in zip(zs.zeros, zs.unverified_windows):
            assert lo < z.gamma < hi

    def test_inflated_paired_rounding_term_leaves_windows(self, monkeypatch):
        # Each side of a pair must clear its own radius: with the bound
        # inflated on the upper side gamma + r alone, every check must still
        # leave a window at every offset.  On the lattice the second offset
        # is each giant step's highest node, whose bound enters the node
        # error of every node of its step, so the interpolant accepts none.
        import zerokit.dirichlet.zeros as zmod

        def upper_side_inflated(s, a, d, modulus):
            bound = hurwitz_bound(s, a, d=d, modulus=modulus)
            bound[:, 1] = 1.0
            return bound

        monkeypatch.setattr(zmod, "hurwitz_bound", upper_side_inflated)
        engine = ModulusEngine((CHI4,), 12.0)
        with pytest.warns(UserWarning, match="failed the sign check"):
            zs = scan_zeros(CHI4, 12.0, engine)
        assert engine.certificates["interpolant"] == 0
        assert not zs.certified
        assert len(zs.unverified_windows) == len(zs.zeros) == 4

    def test_a_close_pair_is_certified_at_a_wider_offset(self):
        # q199.e23 has two zeros 0.016 apart near 307.2, where |Z| at
        # gamma -/+ TARGET_RADIUS stays inside its error radius.  Their
        # checks clear at 10 TARGET_RADIUS, which becomes their radius.
        chi = next(c for c in primitive_characters(199) if char_label(c) == "q199.e23")
        zs = scan_zeros(chi, 310.0)
        assert zs.certified
        wide = [z for z in zs.zeros if z.certified_radius != TARGET_RADIUS]
        assert [z.certified_radius for z in wide] == [1e-8, 1e-8]
        assert all(307.18 < z.gamma < 307.21 for z in wide)

    def test_interval_z_proves_the_sign_checks_at_zetas_first_ten_zeros(self):
        # An interval enclosure of Z (80 bits, `oracles.z_enclosure`) at each
        # side gamma -/+ TARGET_RADIUS of a check: the two enclosures have
        # strictly opposite signs, and the engine's float Z lies within its
        # radius of every point of the enclosure.
        engine = ModulusEngine((ZETA,), 50.0)
        gammas = engine.zero_set(ZETA).gamma
        gammas = gammas[gammas > 0.0]
        assert len(gammas) == 10
        values, radii = engine._pair(gammas, np.zeros(len(gammas), dtype=int), TARGET_RADIUS)
        for j, gamma in enumerate(gammas):
            lower, upper = (z_enclosure(gamma, offset) for offset in (-TARGET_RADIUS, TARGET_RADIUS))
            assert (lower.a > 0 and upper.b < 0) or (lower.b < 0 and upper.a > 0), gamma
            for side, enclosure in enumerate((lower, upper)):
                assert abs(enclosure - float(values[side, j])).b <= radii[side, j], (gamma, side)

    def test_interval_z_proves_the_interpolant_checks(self, monkeypatch):
        # The same referee for the lattice's interpolant, at zeta's first ten
        # zeros and its last five below 100 (only four lie between 90 and
        # 100, the fifth is 88.81): each is certified by the
        # interpolant, its enclosures at gamma -/+ TARGET_RADIUS have
        # strictly opposite signs, and the interpolated float Z lies within
        # the certificate's radius of every point of each enclosure.
        import zerokit.dirichlet.zeros as zmod

        seen = []
        interpolate = zmod.ModulusEngine._interpolate

        def spied(engine, lattice, gammas, owners):
            values, radii = interpolate(engine, lattice, gammas, owners)
            seen.append((gammas, values, radii))
            return values, radii

        monkeypatch.setattr(zmod.ModulusEngine, "_interpolate", spied)
        engine = ModulusEngine((ZETA,), 100.0)
        stored = engine.zero_set(ZETA).gamma
        assert engine.certificates["unclear"] == engine.certificates["regrid"] == 0
        gammas, values, radii = (np.concatenate(parts, axis=-1) for parts in zip(*seen))
        positive = stored[stored > 0.0]
        sample = np.concatenate([positive[:10], positive[-5:]])
        assert 88.0 < sample[-5] and sample[-1] < 100.0
        for gamma in sample:
            j = int(np.flatnonzero(gammas == gamma)[0])
            lower, upper = (z_enclosure(gamma, offset) for offset in (-TARGET_RADIUS, TARGET_RADIUS))
            assert (lower.a > 0 and upper.b < 0) or (lower.b < 0 and upper.a > 0), gamma
            for side, enclosure in enumerate((lower, upper)):
                assert abs(enclosure - float(values[side, j])).b <= radii[side, j], (gamma, side)

    @pytest.mark.parametrize("T", [51.0, 300.0])
    @pytest.mark.parametrize("q", [1, 5, 19])
    def test_lattice_node_error_covers_the_pointwise_bound(self, monkeypatch, q, T):
        # The interpolant's node error is one bound per giant step, from the
        # Hurwitz bound at its lowest and highest node; it must be at least
        # `_radius`'s pointwise error of S, q^(1/2) times the radius of Z,
        # at every node of the lattice.
        import zerokit.dirichlet.zeros as zmod

        grids = []
        lattice = zmod.ModulusEngine._lattice

        def spied(engine, c, d, sums):
            grids.append((c, d, lattice(engine, c, d, sums)))
            return grids[-1][-1]

        monkeypatch.setattr(zmod.ModulusEngine, "_lattice", spied)
        engine = ModulusEngine(primitive_characters(q), T)
        engine.zero_set(engine.chars[0])
        (c, d, nodes), = grids
        for part, table in engine._tables(c, d):
            pointwise = engine._radius(c[part], d, table) * math.sqrt(q)
            rows = part[:, None] * len(d) + np.arange(len(d))
            assert np.all(nodes.error[rows] >= pointwise), (q, T)

    def test_interpolant_differences_are_exact(self, monkeypatch):
        # GRID_STEP is a binary fraction, so every node the engine evaluates
        # is exact: the lattice's grid c + d is 0.5 + i k GRID_STEP, and a
        # regrid node 0.5 + i k GRID_STEP / 4, bit for bit.  And |gamma| - t_m,
        # for the node m nearest |gamma|, is exact in floating point.
        from fractions import Fraction

        import zerokit.dirichlet.zeros as zmod

        h = zmod.GRID_STEP
        seen, lattices, regrids = [], [], []
        interpolate, lattice, grid = zmod.ModulusEngine._interpolate, zmod.ModulusEngine._lattice, zmod.hurwitz_zeta_vec

        def spied_interpolate(engine, nodes, gammas, owners):
            seen.append(gammas)
            return interpolate(engine, nodes, gammas, owners)

        def spied_lattice(engine, c, d, sums):
            lattices.append((c[:, None] + d).ravel())
            return lattice(engine, c, d, sums)

        def spied_grid(c, a, d, modulus):
            if np.all(np.real(c) == 0.5) and np.all(np.real(d) == 0.0) and len(d) > 2:
                regrids.append((np.asarray(c)[:, None] + d).ravel())
            return grid(c, a, d=d, modulus=modulus)

        monkeypatch.setattr(zmod.ModulusEngine, "_interpolate", spied_interpolate)
        monkeypatch.setattr(zmod.ModulusEngine, "_lattice", spied_lattice)
        monkeypatch.setattr(zmod, "hurwitz_zeta_vec", spied_grid)
        engine = ModulusEngine(primitive_characters(13), 300.0)
        engine.zero_set(engine.chars[0])
        (nodes,), gammas = lattices, np.concatenate(seen)
        assert np.array_equal(nodes, 0.5 + 1j * h * np.arange(len(nodes)))
        assert regrids and engine.certificates["regrid"] > 0
        for points in regrids:
            k = np.rint(points.imag / (h / 4.0))
            assert np.array_equal(points, 0.5 + 1j * k * (h / 4.0))
            assert all(Fraction(t) == int(j) * Fraction(h) / 4 for t, j in zip(points.imag, k))
        for t in np.abs(gammas):
            m = int(np.rint(t / h))
            assert Fraction(t - m * h) == Fraction(t) - m * Fraction(h), t

    def test_interpolant_radius_covers_its_own_rounding(self, monkeypatch):
        # With no node error and a zero majorant (so no Hermite remainder),
        # an interpolant radius is the barycentric sum's rounding term.
        # Near t = 1000, with the rotation set to 1, Z is Re S, and the
        # float interpolant must lie within its radius of the same
        # barycentric form through the nodes k GRID_STEP and the same data
        # in exact rationals.  With the rounding term cut a hundredfold it
        # does not.
        from fractions import Fraction

        import zerokit.dirichlet.zeros as zmod

        rng = np.random.default_rng(1000)
        h, r, width = zmod.GRID_STEP, TARGET_RADIUS, zmod.WINDOW
        rows = 64 * 320
        nodes = [k * Fraction(h) for k in range(rows)]
        sums = tuple(rng.uniform(-1.0, 1.0, (rows, 1)) + 1j * rng.uniform(-1.0, 1.0, (rows, 1)) for _ in range(2))
        lattice = zmod._Lattice(sums, np.zeros(rows), np.zeros((rows, 2)))
        engine = ModulusEngine((ZETA,), 1010.0)
        monkeypatch.setattr(engine, "_rotation", lambda s, odd: np.ones(np.shape(s)))
        gammas = np.concatenate([rng.uniform(1000.0, 1010.0, 24), -rng.uniform(1000.0, 1010.0, 8)])
        z, radius = engine._interpolate(lattice, gammas, np.zeros(len(gammas), dtype=int))
        for j, gamma in enumerate(gammas):
            start = int(zmod._window_start(np.array([abs(gamma)]), rows)[0])
            window = range(start, start + width)
            data = sums[0] if gamma > 0.0 else sums[1]
            for side, sign in enumerate((-1, 1)):
                x = abs(Fraction(gamma) + sign * Fraction(r))
                exact = Fraction(0)
                for i in window:
                    ell = Fraction(1)
                    for k in window:
                        if k != i:
                            ell *= (x - nodes[k]) / (nodes[i] - nodes[k])
                    exact += ell * Fraction(data[i, 0].real)
                assert 0.0 < radius[side, j] < 1e-12
                assert abs(Fraction(z[side, j]) - exact) <= Fraction(radius[side, j]), (gamma, side)

    def test_inflated_majorant_falls_back_to_the_kernel(self, monkeypatch):
        # The majorant enters every interpolant radius: on the disk through
        # Hermite's remainder, on the line through the node error's
        # rounding part.  Inflated a million-fold on the disk alone it
        # widens every radius; inflated everywhere it sends every ordinate
        # the interpolant would take to the kernel check, which certifies
        # the same zero sets: inflating a term never buys an acceptance.
        import zerokit.dirichlet.zeros as zmod

        radii = []
        interpolate, majorant = zmod.ModulusEngine._interpolate, zmod.hurwitz_majorant

        def spied(engine, lattice, gammas, owners):
            values, rho = interpolate(engine, lattice, gammas, owners)
            radii.append(rho)
            return values, rho

        def inflated(disk_only):
            return lambda lo, hi, t, a: tuple((1e6 if lo < 0.5 or not disk_only else 1.0) * x for x in majorant(lo, hi, t, a))

        monkeypatch.setattr(zmod.ModulusEngine, "_interpolate", spied)
        chars = primitive_characters(5)
        engines = []
        for patch in (majorant, inflated(True), inflated(False)):
            monkeypatch.setattr(zmod, "hurwitz_majorant", patch)
            engines.append(ModulusEngine(chars, 60.0))
            engines[-1].zero_set(chars[0])
        default, disk, everywhere = engines
        assert len(radii) == 3 and np.all(radii[1] > radii[0])
        for chi in chars:
            before, after = default.zero_set(chi), everywhere.zero_set(chi)
            assert after.certified
            for name in ("gamma", "radius"):
                assert np.array_equal(getattr(after, name), getattr(before, name))
        assert default.certificates["interpolant"] > 0
        assert everywhere.certificates["interpolant"] == 0
        assert everywhere.certificates["unclear"] == default.certificates["interpolant"] + default.certificates["unclear"]

    def test_a_disk_that_reaches_the_pole_has_an_infinite_radius(self, monkeypatch):
        # Hermite's remainder bounds S on the circle of radius DISK about the
        # window's centre t0, which must stay clear of s = 1: an ordinate
        # with |t0 + i/2| <= DISK has an infinite radius on both sides, and
        # every other ordinate a finite one.
        import zerokit.dirichlet.zeros as zmod

        lattices = []
        lattice = zmod.ModulusEngine._lattice

        def spied(engine, c, d, sums):
            lattices.append(lattice(engine, c, d, sums))
            return lattices[-1]

        monkeypatch.setattr(zmod.ModulusEngine, "_lattice", spied)
        engine = ModulusEngine((ZETA,), 30.0)
        engine.zero_set(ZETA)
        (nodes,) = lattices
        gammas = np.linspace(-4.0, 4.0, 801)
        _, radius = engine._interpolate(nodes, gammas, np.zeros(len(gammas), dtype=int))
        centre = (zmod._window_start(np.abs(gammas), len(nodes.error)) + (zmod.WINDOW - 1) / 2) * zmod.GRID_STEP
        reaches = np.abs(0.5 + 1j * centre) <= zmod.DISK
        assert reaches.any() and not reaches.all()
        assert np.all(np.isinf(radius[:, reaches]))
        assert np.all(np.isfinite(radius[:, ~reaches]))

    def test_only_the_disks_around_the_pole_fall_back(self, monkeypatch):
        # Mod 5 to 60 the interpolant certifies every ordinate whose disk
        # of radius DISK stays clear of s = 1, so no ordinate with
        # |gamma| > 2.5 reaches the kernel; the kernel check, given no
        # ordinate, evaluates nothing.
        import zerokit.dirichlet.zeros as zmod

        checked, pairs = [], []
        check, pair = zmod.ModulusEngine._check, zmod.ModulusEngine._pair

        def spied_check(engine, gammas, owners):
            checked.append(gammas.copy())
            return check(engine, gammas, owners)

        def spied_pair(engine, gammas, cols, offset):
            pairs.append(len(gammas))
            return pair(engine, gammas, cols, offset)

        monkeypatch.setattr(zmod.ModulusEngine, "_check", spied_check)
        monkeypatch.setattr(zmod.ModulusEngine, "_pair", spied_pair)
        chars = primitive_characters(5)
        engine = ModulusEngine(chars, 60.0)
        assert all(engine.zero_set(chi).certified for chi in chars)
        assert np.all(np.abs(np.concatenate(checked)) <= 2.5)
        assert engine.certificates["unclear"] == 0 and engine.certificates["interpolant"] > 100
        calls = len(pairs)
        ok, radii = engine._check(np.empty(0), np.empty(0, dtype=int))
        assert len(pairs) == calls and ok.shape == radii.shape == (0,)

    def test_mirrored_sets_negate_their_windows(self, tmp_path, monkeypatch):
        # Every ordinate fails its sign check; a conjugate character taken by
        # mirroring must name windows around its own ordinates.
        import zerokit.dirichlet.zeros as zmod

        monkeypatch.setattr(zmod, "hurwitz_bound", _inflated_bound)
        lib = ZeroLibrary(tmp_path)
        with pytest.warns(UserWarning, match="failed the sign check"):
            lib.ensure(5, 10.0)
        for chi in primitive_characters(5):
            zs = lib._memory[(5, chi.exponents)]
            assert not zs.certified and len(zs.gamma)
            for gamma in zs.gamma:
                assert any(lo < gamma < hi for lo, hi in zs.unverified_windows), (chi, gamma)

    def test_library_needs_no_per_character_l_evaluation(self, tmp_path, monkeypatch):
        # The scan and the count both read the engine's bank.
        import zerokit.dirichlet.lfunctions as lmod
        import zerokit.dirichlet.zeros as zmod

        def forbidden(s, chi):
            raise AssertionError(f"per-character L-evaluation of {chi}")

        monkeypatch.setattr(zmod, "l_eval_vec", forbidden)
        monkeypatch.setattr(lmod, "l_eval_vec", forbidden)
        lib = ZeroLibrary(tmp_path)
        lib.ensure(13, 20.0)
        for chi in primitive_characters(13):
            assert lib.get(chi, 20.0).certified

    def test_bank_matches_the_one_character_line(self):
        # The bank evaluates t >= 0 only and takes Z(-t) from the conjugate
        # table; both halves, turned into Z (`_turn`), must match the
        # one-character reference form, on the lattice's grid shape (every
        # 7th node, a 0.35 step, as 5 giant steps of 8 baby steps) and at
        # single points (one offset d = 1/2) alike.
        import zerokit.dirichlet.zeros as zmod

        chars = primitive_characters(5)
        engine = ModulusEngine(chars, 10.0)
        h = 7 * zmod.GRID_STEP
        lattice = (1j * 8 * h * np.arange(5), 0.5 + 1j * h * np.arange(8))
        grid = (lattice[0][:, None] + lattice[1]).ravel().imag
        ts = np.array([0.0, 0.7, 6.0, 14.13, 29.9])
        single = (1j * ts, np.array([0.5]))
        cols = np.arange(len(chars))
        banks = [
            (v.real for v in engine._turn(cols, (c[:, None] + d).ravel(), *engine._bank(cols, c, d)))
            for c, d in (lattice, single)
        ]
        (pos_grid, neg_grid), (pos, neg) = banks
        assert pos_grid.shape == neg_grid.shape == (len(grid), len(chars))
        assert pos.shape == neg.shape == (len(ts), len(chars))
        for c, chi in enumerate(chars):
            half_phase = cmath.phase(root_number(chi)) / 2.0
            for up, down, points in ((pos_grid, neg_grid, grid), (pos, neg, ts)):
                assert up[:, c] == pytest.approx(_rotated_line(chi, points, half_phase), abs=1e-13)
                assert down[:, c] == pytest.approx(_rotated_line(chi, -points, half_phase), abs=1e-13)
        c = 1j * np.concatenate([ts, -ts])
        line = np.empty(len(c))
        for part, z, table in engine._line(np.repeat([0, 2], len(ts)), c, np.array([0.5])):
            assert z.shape == (len(part), 1) and table.shape == (len(part), 1, 4)
            line[part] = z[:, 0]
        assert line[: len(ts)] == pytest.approx(pos[:, 0], abs=1e-13)
        assert line[len(ts) :] == pytest.approx(neg[:, 2], abs=1e-13)

    def test_complex_character_ordinates_against_mpmath_findroot(self):
        # independent oracle: mpmath's Dirichlet L-function and its root finder
        import mpmath as mp

        chi = next(c for c in primitive_characters(5) if conjugate_character(c) != c)
        values = [complex(char_value(chi, n)) for n in range(5)]
        zs = scan_zeros(chi, 12.0)
        gammas = [z.gamma for z in zs.zeros]
        assert min(gammas) < 0.0 < max(gammas)
        with mp.workdps(30):
            for g in gammas[:2] + gammas[-2:]:
                root = mp.findroot(lambda s: mp.dirichlet(s, values), mp.mpc(0.5, g))
                assert abs(float(root.real) - 0.5) < 1e-11
                assert abs(float(root.imag) - g) < 1e-11

    def test_larger_modulus_ordinates_against_mpmath_findroot(self):
        # At a larger modulus no refinement step follows the interpolant seed.
        import mpmath as mp

        chi = next(c for c in primitive_characters(19) if conjugate_character(c) != c)
        values = [complex(char_value(chi, n)) for n in range(19)]
        gammas = [z.gamma for z in scan_zeros(chi, 50.0).zeros]
        with mp.workdps(30):
            for g in gammas[:2] + gammas[-2:]:
                root = mp.findroot(lambda s: mp.dirichlet(s, values), mp.mpc(0.5, g))
                assert abs(float(root.real) - 0.5) < 1e-11
                assert abs(float(root.imag) - g) < 1e-11

    def test_each_ordinate_costs_one_sign_check(self, monkeypatch):
        # After the lattice and the count, each ordinate the scan locates is
        # certified once: by the lattice's interpolant, which makes no
        # Hurwitz call, or by one paired kernel evaluation at gamma -/+
        # TARGET_RADIUS; no refinement rounds.  Every kernel stage is one
        # Hurwitz grid c + d, told apart by its offsets d: the lattice's B
        # baby steps climb the critical line; the count's d are the 16 real
        # edge abscissae; the one quarter-step regrid, of the sign changes
        # with |t| < LOW (q13.e5 and q13.e7 have a zero near -/+0.884),
        # takes 15 nodes per cell; the sign checks take d = -/+ i r.  Mod 13
        # to 20 the regrid's two seeds are the only ordinates the
        # interpolant cannot take, and the only ones the kernel checks.
        import zerokit.dirichlet.zeros as zmod

        calls, interpolated = [], []
        grid, interpolate = zmod.hurwitz_zeta_vec, zmod.ModulusEngine._interpolate

        def spied(c, a, d, modulus):
            calls.append((np.array(c), np.array(d)))
            assert len(c) * len(d) * len(a) <= zmod.TABLE_ENTRIES and modulus == 13
            return grid(c, a, d=d, modulus=modulus)

        def spied_interpolate(engine, lattice, gammas, owners):
            interpolated.append(gammas.copy())
            return interpolate(engine, lattice, gammas, owners)

        def kind(d):
            if len(d) == 2 and d[0] == -d[1] and d[1].real == 0.0:
                return "check"
            if np.all(d.imag == 0.0):
                return "count"
            return "lattice" if np.all(d.real == 0.5) else "regrid"

        monkeypatch.setattr(zmod, "hurwitz_zeta_vec", spied)
        monkeypatch.setattr(zmod.ModulusEngine, "_interpolate", spied_interpolate)
        chars = primitive_characters(13)
        engine = ModulusEngine(chars, 20.0)
        sets = [engine.zero_set(chi) for chi in chars]
        assert all(zs.certified for zs in sets)
        kinds = [kind(d) for _, d in calls]
        assert [k for i, k in enumerate(kinds) if kinds[i - 1 : i] != [k]] == ["lattice", "count", "regrid", "check"]
        stage = {k: [call for call, x in zip(calls, kinds) if x == k] for k in kinds}
        # the lattice: nodes 0..n as one grid of B = ceil(sqrt(n + 1)) baby
        # steps and the giant steps that cover them, n + 1 = 418 nodes to
        # NODES // 2 + 1 past the highest count edge 410 GRID_STEP, each
        # node exactly k GRID_STEP
        n = round(20.0 / zmod.GRID_STEP) + zmod.EDGE_CANDIDATES + zmod.NODES // 2
        baby = math.ceil(math.sqrt(n + 1))
        assert [(len(c), len(d)) for c, d in stage["lattice"]] == [(-(-(n + 1) // baby), baby)]
        c, d = stage["lattice"][0]
        assert np.array_equal((c[:, None] + d).ravel()[: n + 1], 0.5 + 1j * zmod.GRID_STEP * np.arange(n + 1))
        # the count: one c = i t_eff per distinct count edge, 16 abscissae d
        assert [len(d) for _, d in stage["count"]] == [16]
        c, d = stage["count"][0]
        top = 20.0 + zmod.EDGE_CANDIDATES * zmod.GRID_STEP
        assert np.all((c.real == 0.0) & (c.imag >= 20.0) & (c.imag <= top)) and len(c) <= zmod.EDGE_CANDIDATES
        assert d[0] == 0.5 and d[-1] == zmod.RIGHT
        # the regrid: one c per low cell, on the critical line, 15 quarter-step nodes d
        assert [len(d) for _, d in stage["regrid"]] == [5 + 2 * (zmod.NODES // 2 - 1)]
        c, d = stage["regrid"][0]
        assert np.all(c.real == 0.5) and np.all(d.real == 0.0)
        assert np.max(np.abs((c[:, None] + d).imag)) <= zmod.LOW + zmod.NODES // 2 * zmod.GRID_STEP / 4
        pairs = [(c, d[1].imag) for c, d in stage["check"]]
        # the kernel checks the regrid's seeds alone, each once, at exactly
        # -/+ TARGET_RADIUS, on the critical line
        assert pairs and all(r == TARGET_RADIUS for _, r in pairs)
        centres = np.concatenate([s for s, _ in pairs])
        assert np.all(centres.real == 0.5)
        checked = centres.imag
        assert len(checked) == 2 and np.all(np.abs(checked) < zmod.LOW)
        # every lattice seed is certified by the interpolant
        assert engine.certificates == {"interpolant": sum(map(len, interpolated)), "pole": 0, "unclear": 0, "regrid": 2}
        located = np.concatenate(interpolated + [checked])
        assert len(np.unique(located)) == len(located)
        # real characters are located on t > 0 and mirrored
        stored = np.array(
            [z.gamma for zs in sets for z in zs.zeros if z.gamma > 0 or conjugate_character(zs.character) != zs.character]
        )
        kept = np.min(np.abs(located[:, None] - stored[None, :]), axis=1) < 1e-12
        assert kept.sum() == len(stored)
        # the rest lie between T and the highest count edge
        assert np.all((np.abs(located[~kept]) > 20.0) & (np.abs(located[~kept]) <= top))

    @pytest.mark.parametrize("T", [1e-9, 0.15, 7.35, 20.2, 51.089999, 51.0])
    def test_count_edges_are_lattice_nodes(self, monkeypatch, T):
        # Each count edge is one of the EDGE_CANDIDATES lattice nodes
        # k GRID_STEP from the first one >= T, on a lattice height or off one.
        import zerokit.dirichlet.zeros as zmod

        counts = zmod.ModulusEngine._counts
        edges = []

        def spied(engine, t_eff):
            edges.extend(t_eff)
            return counts(engine, t_eff)

        monkeypatch.setattr(zmod.ModulusEngine, "_counts", spied)
        chars = primitive_characters(5)
        engine = ModulusEngine(chars, T)
        assert all(engine.zero_set(chi).certified for chi in chars)
        assert len(edges) == len(chars)
        for t in edges:
            k = round(t / zmod.GRID_STEP)
            assert t == k * zmod.GRID_STEP
            assert k * zmod.GRID_STEP >= T and (k - zmod.EDGE_CANDIDATES) * zmod.GRID_STEP < T

    @pytest.mark.parametrize("T", [20.2, 51.089999])
    @pytest.mark.parametrize("q", [3, 5])
    def test_a_height_scans_the_grid_of_its_first_node(self, monkeypatch, T, q):
        # Scanned to T or to its first lattice node, a character reads one
        # grid, so its ordinates up to T are the same bits.  20.2's first
        # node is 404 GRID_STEP = 20.200077056884766, whose grid must also
        # start its candidates at 404.  Mod 3 the character is real, mod 5
        # complex.
        import zerokit.dirichlet.zeros as zmod

        bank = zmod.ModulusEngine._bank
        lattices = []

        def spied(engine, cols, c, d):
            if np.any(d.imag != 0.0):  # the lattice's baby steps climb the line
                lattices.append((c, d))
            return bank(engine, cols, c, d)

        monkeypatch.setattr(zmod.ModulusEngine, "_bank", spied)
        chi = next(c for c in primitive_characters(q) if (conjugate_character(c) == c) == (q == 3))
        k = int(T / zmod.GRID_STEP) - 1
        while k * zmod.GRID_STEP < T:
            k += 1
        node = k * zmod.GRID_STEP
        below = [z.gamma for z in scan_zeros(chi, T).zeros]
        at = [z.gamma for z in scan_zeros(chi, node).zeros if abs(z.gamma) <= T]
        assert len(lattices) == 2 and all(np.array_equal(x, y) for x, y in zip(*lattices))
        assert below and at == below

    @pytest.mark.parametrize("T", [1e-9, 1e-3, 0.05, 51.0])
    def test_grid_rows_grow_with_the_height_alone(self, monkeypatch, T):
        # The grid reaches NODES // 2 + 1 nodes past the highest count edge,
        # below T + 0.55, on the lattice however small T is; the spy checks
        # its size before anything is evaluated.  The lattice is giant steps
        # c of baby steps d, and the scan keeps the nodes below that bound:
        # every giant step starts within it, and only the last one's baby
        # steps may run past it.
        import zerokit.dirichlet.zeros as zmod

        bank = zmod.ModulusEngine._bank
        grids = []

        def bounded(engine, cols, c, d):
            grids.append((c, d))
            assert np.all(d.imag == 0.0) or (len(c) - 1) * len(d) <= (T + 0.5) / zmod.GRID_STEP + zmod.NODES + 2
            return bank(engine, cols, c, d)

        monkeypatch.setattr(zmod.ModulusEngine, "_bank", bounded)
        zs = scan_zeros(primitive_characters(3)[0], T)
        assert zs.certified and zs.complete_to_height == T
        assert len(grids) == 2 and np.any(grids[0][1].imag != 0.0) and len(grids[0][0]) > 0
        assert (len(zs.zeros) > 0) == (T > 8.0)

    def test_failed_seeds_are_rebanked_locally(self, monkeypatch):
        # On a 0.5 grid the interpolant misses some zeta ordinates below 40
        # by more than TARGET_RADIUS.  Only those seeds' cells are evaluated
        # again, at a quarter step, and their new seeds pass.
        import zerokit.dirichlet.zeros as zmod

        banks, lines, checks = [], [], []
        bank, line, check = zmod.ModulusEngine._bank, zmod.ModulusEngine._line, zmod.ModulusEngine._check

        def banked(engine, cols, c, d):
            banks.append((c, d))
            return bank(engine, cols, c, d)

        def lined(engine, cols, c, d):
            # the regrid's nodes; the sign checks' grids, d = -/+ i r, also read one owner
            if len(d) != 2:
                lines.append((c[:, None] + d).ravel().imag)
            return line(engine, cols, c, d)

        def checked(engine, gammas, owners):
            ok, radii = check(engine, gammas, owners)
            checks.append((gammas.copy(), ok))
            return ok, radii

        default = scan_zeros(ZETA, 40.0)
        monkeypatch.setattr(zmod, "GRID_STEP", 0.5)
        monkeypatch.setattr(zmod.ModulusEngine, "_bank", banked)
        monkeypatch.setattr(zmod.ModulusEngine, "_line", lined)
        monkeypatch.setattr(zmod.ModulusEngine, "_check", checked)
        zs = scan_zeros(ZETA, 40.0)
        assert zs.certified
        assert len(banks) == 2 and len(lines) == 1 and len(checks) == 2
        (seeds, first), (_, second) = checks
        failed = seeds[~first]
        assert 0 < len(failed) < len(seeds) and len(second) == len(failed) and second.all()
        rebanked = lines[0]
        assert len(rebanked) < 4 * 40.0 / 0.5  # a whole-line grid at a quarter step
        # a failed seed's cell and 5 quarter steps either side
        assert all(np.min(np.abs(failed - t)) <= 2.25 * 0.5 for t in rebanked)
        # each certified ordinate lies within TARGET_RADIUS of the same zero
        assert [z.gamma for z in zs.zeros] == pytest.approx([z.gamma for z in default.zeros], abs=2 * TARGET_RADIUS)

    def test_a_pair_inside_one_cell_is_rebanked_at_its_dip(self, monkeypatch):
        # The mod-3 ordinates 246.3028 and 246.4149 share a cell of a 0.25
        # grid to 250, whose ends have one sign, so the count exceeds the
        # sign changes.  The interpolant dips toward zero there; that cell
        # is rebanked at a quarter step, which separates the pair.
        import zerokit.dirichlet.zeros as zmod

        chi = primitive_characters(3)[0]
        default = scan_zeros(chi, 250.0)
        monkeypatch.setattr(zmod, "GRID_STEP", 0.25)
        zs = scan_zeros(chi, 250.0)
        assert zs.certified
        # each certified ordinate lies within TARGET_RADIUS of the same zero
        assert [z.gamma for z in zs.zeros] == pytest.approx([z.gamma for z in default.zeros], abs=2 * TARGET_RADIUS)
        assert sum(1 for z in zs.zeros if 246.3 < z.gamma < 246.42) == 2
        monkeypatch.setattr(zmod, "_dips", lambda vals, cells, rows: (rows[:0], rows[:0]))
        with pytest.warns(UserWarning, match="winding count"):
            assert not scan_zeros(chi, 250.0).certified

    def test_interpolant_is_exact_on_polynomials(self):
        # A degree-11 polynomial is its own interpolant: the seed finds its
        # root, and the node slopes are its derivative.
        import zerokit.dirichlet.zeros as zmod

        x = np.arange(zmod.NODES, dtype=float)
        poly = np.polynomial.Polynomial.fromroots([4.3, -2.0, 15.0, 7.5, 9.9, -8.0, 20.0, 1.5, 30.0, -3.3, 12.0])
        f = poly(x)[None, :]
        assert zmod._interpolant_root(f, np.array([4])) == pytest.approx([4.3], abs=1e-13)
        assert zmod._DIFF @ poly(x) == pytest.approx(poly.deriv()(x), rel=1e-10)

    def test_newton_seed_matches_bisection_on_random_windows(self):
        # Degree-11 windows with one root in the cell and the other ten at
        # least a node away from it: Newton's root and 52 bisections of the
        # cell agree within 4 eps of the cell (plus the rounding of left + t).
        # The cell sits mid-window, as in every window the engine seeds away
        # from the ends of its grid; at the window's edge the barycentric sum
        # loses digits, and both roots land anywhere in that rounding noise.
        import zerokit.dirichlet.zeros as zmod

        rng = np.random.default_rng(17)
        x = np.arange(zmod.NODES, dtype=float)
        windows, lefts = [], []
        for _ in range(400):
            left = int(rng.integers(4, 7))
            others = rng.uniform(-8.0, zmod.NODES + 7.0, 40)
            others = others[(others < left - 1.0) | (others > left + 2.0)][:10]
            roots = np.append(others, left + rng.uniform(0.02, 0.98))
            windows.append(np.prod(x[:, None] - roots, axis=1) * 10.0 ** rng.uniform(-6.0, 3.0))
            lefts.append(left)
        f, left = np.array(windows), np.array(lefts)
        _assert_same_root(zmod._interpolant_root(f, left), _bisected_root(f, left), left)

    @pytest.mark.parametrize("q, T, count", [(19, 51.0, None), (199, 30.0, 12)])
    def test_newton_seed_matches_bisection_on_engine_windows(self, monkeypatch, q, T, count):
        # Every window that a scan seeds, at a small and a large modulus.
        import zerokit.dirichlet.zeros as zmod

        seen = []
        newton = zmod._interpolant_root

        def spied(f, left):
            seen.append((f.copy(), left.copy()))
            return newton(f, left)

        monkeypatch.setattr(zmod, "_interpolant_root", spied)
        chars = primitive_characters(q)[:count]
        engine = ModulusEngine(chars, T)
        assert all(engine.zero_set(chi).certified for chi in chars)
        f, left = (np.concatenate(parts) for parts in zip(*seen))
        assert len(f) > 100
        _assert_same_root(newton(f, left), _bisected_root(f, left), left)

    def test_rejected_newton_steps_bisect_inside_the_cell(self, monkeypatch):
        # A root 2^-54 of the cell right of its left node, closer than any
        # point the seed evaluates, and a near-double root 1e-8 left of the
        # right node, which makes the right node's value small: the secant
        # start lies mid-cell, every Newton step lands left of the bracket,
        # and each step is the bracket's midpoint.  The seed still returns
        # the left end of the cell within nmant steps.
        import zerokit.dirichlet.zeros as zmod

        x = np.arange(zmod.NODES, dtype=float)
        far = np.array([-3.0, -1.5, 0.5, 2.5, 8.5, 10.5, 13.0, 16.0])
        f = ((x - 5.0) - 2.0**-54) * ((x - 6.0 + 1e-8) ** 2 + 1e-18) * np.prod(x[:, None] - far, axis=1)
        points = []
        barycentric = zmod._barycentric

        def spied(weighted, offsets, at):
            points.append(at.copy())
            return barycentric(weighted, offsets, at)

        monkeypatch.setattr(zmod, "_barycentric", spied)
        root = zmod._interpolant_root(f[None, :], np.array([5]))
        steps = np.concatenate(points)
        assert 40 < len(steps) <= np.finfo(float).nmant
        assert 0.25 < steps[0] < 0.75
        assert np.array_equal(steps[1:], 0.5 * (2.0**-53 + steps[:-1]))
        assert 5.0 <= root[0] <= 6.0
        _assert_same_root(root, _bisected_root(f[None, :], np.array([5])), np.array([5]))

    def test_low_ordinates_against_mpmath(self, zero_library):
        # The zeros with |gamma| < 1 are seeded from the quarter-step regrid:
        # q199.e48's zero at 0.2114 was 4.1e-11 off when seeded from the
        # 0.05 lattice.  A secant step on mpmath's L-function from each
        # ordinate (one step suffices from 1e-10) is the oracle.
        import mpmath as mp

        low = [
            (chi, z.gamma)
            for q in range(1, 21)
            for chi in primitive_characters(q)
            for z in zero_library.get(chi, 1.0).zeros
            if abs(z.gamma) < 1.0
        ]
        assert len(low) == 6
        chi = next(c for c in primitive_characters(199) if char_label(c) == "q199.e48")
        low += [(chi, z.gamma) for z in scan_zeros(chi, 2.0).zeros if abs(z.gamma) < 1.0]
        assert len(low) == 7
        with mp.workdps(20):
            for chi, g in low:
                values = [complex(char_value(chi, n)) for n in range(chi.modulus)]
                here, there = (mp.dirichlet(mp.mpc(0.5, t), values) for t in (g, g + 1e-6))
                root = g - here * 1e-6 / (there - here)
                assert abs(complex(root) - g) < 1e-12, (char_label(chi), g)

    def test_unverified_windows_are_not_persisted(self, tmp_path, monkeypatch):
        import zerokit.dirichlet.zerocache as cmod

        bad = ZeroSet(CHI4, (), (), (), 10.0, unverified_windows=((-10.0, 10.0),))
        assert not bad.certified
        monkeypatch.setattr(cmod, "scan_zeros", lambda chi, T, engine: bad)
        lib = ZeroLibrary(tmp_path / "cache")
        lib.ensure(4, 10.0)
        assert not lib.certified()
        assert not (tmp_path / "cache" / "zeros_q0004.csv").exists()
        with pytest.raises(CountCertificationError, match=r"q4\.e1 is not certified.*-10\.0, 10\.0"):
            lib.get(CHI4, 10.0)


def _bisected_root(f: np.ndarray, left: np.ndarray) -> np.ndarray:
    """The interpolant's root in each cell by 52 bisections, the reference for the Newton seed."""
    import zerokit.dirichlet.zeros as zmod

    rows = np.arange(len(f))
    weighted = zmod._WEIGHTS * f
    offsets = left[:, None] - np.arange(zmod.NODES)
    at_left = np.sign(weighted[rows, left])
    lo, hi = np.zeros(len(f)), np.ones(len(f))
    for _ in range(np.finfo(float).nmant):
        mid = 0.5 * (lo + hi)
        beyond = np.sign(np.sum(weighted / (mid[:, None] + offsets), axis=1)) == at_left
        lo, hi = np.where(beyond, mid, lo), np.where(beyond, hi, mid)
    return left + 0.5 * (lo + hi)


def _assert_same_root(root: np.ndarray, reference: np.ndarray, left: np.ndarray) -> None:
    """Within 4 eps of the unit cell, plus one rounding of left + t."""
    assert np.all((left <= root) & (root <= left + 1))
    assert np.all(np.abs(root - reference) <= 4 * np.finfo(float).eps + np.spacing(left + 1.0))


@pytest.fixture(scope="module")
def zeta_set():
    return scan_zeros(ZETA, 16.0)


class TestCircleCounts:

    def test_disk_counts_near_first_zero(self, zeta_set):
        assert count_zeros_circle(zeta_set, 0.2, 1.0 + 14.0j) == 0
        assert count_zeros_circle(zeta_set, 0.6, 1.0 + 14.0j) == 1
        assert count_zeros_circle(zeta_set, 0.01, 0.5 + 14.13j) == 1

    def test_central_disk_excludes_low_zeros(self, zeta_set):
        assert count_zeros_circle(zeta_set, 14.0, 0.5 + 0.0j) == 0

    def test_certified_height_guard(self, zeta_set):
        with pytest.raises(ValueError):
            count_zeros_circle(zeta_set, 3.0, 0.5 + 15.0j)

    def test_an_array_of_disks_counts_each_disk(self, zeta_set):
        r = np.array([0.2, 0.6, 0.01, 14.0, 1.0])
        centers = np.array([1.0 + 14.0j, 1.0 + 14.0j, 0.5 + 14.13j, 0.5 + 0.0j, 1.0 - 14.0j])
        counts = count_zeros_circle(zeta_set, r, centers)
        assert counts.tolist() == [count_zeros_circle(zeta_set, float(a), complex(c)) for a, c in zip(r, centers)]
        assert counts.tolist() == [0, 1, 1, 0, 1]
        # One disk past the certified height refuses the whole array.
        with pytest.raises(ValueError):
            count_zeros_circle(zeta_set, np.array([0.2, 3.0]), np.array([1.0 + 14.0j, 0.5 + 15.0j]))


class TestLibraryAndCache:
    def test_each_modulus_file_is_read_once(self, zero_library, monkeypatch):
        import zerokit.dirichlet.zerocache as zcache

        reads = []

        def counting_read(cache_dir, q):
            reads.append(q)
            return read_zero_cache(cache_dir, q)

        monkeypatch.setattr(zcache, "read_zero_cache", counting_read)
        library = ZeroLibrary(zero_library.cache_dir)
        for q in (5, 1, 2):  # q = 2 has no primitive character and no file
            assert set(library.ensure(q, 20.0).values()) <= {"cached"}
            assert set(library.ensure(q, 20.0).values()) <= {"cached"}
        assert library.get(enumerate_characters(5)[1], 20.0) is library.get(enumerate_characters(5)[1], 30.0)
        library.get(enumerate_characters(2)[0], 20.0)  # resolves to zeta, already read
        library.get(enumerate_characters(3)[1], 20.0)
        assert sorted(reads) == [1, 2, 3, 5]

    def test_round_trip(self, tmp_path):
        zs = scan_zeros(CHI4, 12.0)
        write_zero_cache(tmp_path, {CHI4.exponents: zs})
        loaded = read_zero_cache(tmp_path, 4)
        assert CHI4.exponents in loaded
        back = loaded[CHI4.exponents]
        assert back.complete_to_height == zs.complete_to_height
        assert [(z.beta, z.gamma, z.certified_radius) for z in back.zeros] == [
            (z.beta, z.gamma, z.certified_radius) for z in zs.zeros
        ]

    @pytest.mark.parametrize(
        "field, value, message",
        [
            (5, "inf", "complete_to_height inf is not finite and positive"),
            (5, "nan", "complete_to_height nan is not finite and positive"),
            (5, "-3.0", "complete_to_height -3.0 is not finite and positive"),
            (3, "nan", "gamma nan is not finite"),
            (3, "inf", "gamma inf is not finite"),
            (4, "nan", "radius nan not finite and positive"),
            (4, "-1e-09", "radius -1e-09 not finite and positive"),
        ],
    )
    def test_non_finite_fields_name_their_file_and_line(self, tmp_path, field, value, message):
        path = write_zero_cache(tmp_path, {CHI4.exponents: scan_zeros(CHI4, 8.0)})
        header, first, *rest = path.read_text().splitlines()
        fields = first.split(",")
        fields[field] = value
        path.write_text("\n".join([header, ",".join(fields), *rest]) + "\n")
        with pytest.raises(ValueError, match=re.escape("zeros_q0004.csv, line 2: ")) as info:
            read_zero_cache(tmp_path, 4)
        assert message in str(info.value)

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["5,1,0.5,6.18,1e-09,8.0", "5,1,0.5,7.5,1e-09,500.0"], "line 3: complete_to_height 500.0 differs from 8.0"),
            (["5,1,,7.5,1e-09,8.0"], "line 2: a row with no beta has gamma '7.5'"),
            (["5,2,,,,8.0", "5,1,,,1e-09,8.0"], "line 3: a row with no beta has gamma '' and radius '1e-09'"),
            (
                ["5,1,0.5,6.18,1e-09,8.0", "5,1,0.5,6.18,1e-09,8.0"],
                "line 3: the interval of gamma 6.18 meets that of gamma 6.18 on line 2, for character 1",
            ),
            (
                ["5,1,0.5,7.5,1e-08,8.0", "5,3,0.5,7.5,1e-09,8.0", "5,1,0.5,7.50000001,1e-09,8.0"],
                "line 4: the interval of gamma 7.50000001 meets that of gamma 7.5 on line 2, for character 1",
            ),
        ],
        ids=["mixed-heights", "gamma-without-beta", "radius-without-beta", "duplicated-row", "meeting-intervals"],
    )
    def test_inconsistent_character_rows_name_their_file_and_line(self, tmp_path, rows, message):
        # All rows of one character carry one height, a row with no zero
        # leaves gamma and radius empty, and no two intervals
        # [gamma - r, gamma + r] of one character meet (a repeated row would
        # reload as an extra zero); any breach makes the file corrupt.
        (tmp_path / "zeros_q0005.csv").write_text("\n".join([CACHE_HEADER, *rows]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"zeros_q0005.csv, {message}")):
            read_zero_cache(tmp_path, 5)

    @pytest.mark.parametrize(
        "rows, message",
        [
            (["5,1,0.5,6.18,1e-09,8.0", "5,2,0.5,7.5,1e-09,inf", "5,1"], "line 3: complete_to_height inf is not finite"),
            (["5,1,0.5,6.18,1e-09,8.0", "5,1", "5,2,0.5,7.5,1e-09,inf"], "line 3: not enough values to unpack (expected 6, got 2)"),
            (["5,1,0.5,6.18,1e-09,8.0,7"], "line 2: too many values to unpack (expected 6)"),
            (["5,1,0.5,6.18,1e-09,8.0", "4,2,0.5,7.5,1e-09,8.0"], "line 3: a row for modulus 4 in the file of modulus 5"),
            (["5,1,nan,,,8.0"], "line 2: could not convert string to float: ''"),
            (["5,1,0.5,,1e-09,8.0"], "line 2: could not convert string to float: ''"),
            (["5,2,,,,8.0", "5,9,0.5,6.18,1e-09,8.0"], "line 3: character key '9' is no character mod 5"),
            (
                ["5,1,0.5,6.18,1e-09,8.0", "5,2,,,,8.0", "5,1,0.5,7.5,1e-09,500.0"],
                "line 4: complete_to_height 500.0 differs from 8.0 on an earlier row of character 1",
            ),
            (
                ["5,1,0.5,7.5,1e-08,8.0", "5,3,0.5,7.5,1e-09,8.0", "5,1,0.5,7.50000001,1e-09,8.0"],
                "line 4: the interval of gamma 7.50000001 meets that of gamma 7.5 on line 2, for character 1",
            ),
        ],
        ids=[
            "height-before-width",
            "width-before-height",
            "extra-field",
            "other-modulus",
            "nan-beta",
            "empty-gamma",
            "unknown-key",
            "heights-across-blocks",
            "intervals-across-blocks",
        ],
    )
    @pytest.mark.parametrize("block", [1, 2, 1 << 14])
    def test_the_first_offending_row_is_named(self, tmp_path, monkeypatch, rows, message, block):
        # Each rule is checked on every row at once, whatever the reader's
        # block of rows; the refusal names the first row that breaks any.
        import zerokit.dirichlet.zerocache as cmod

        monkeypatch.setattr(cmod, "READ_BLOCK", block)
        (tmp_path / "zeros_q0005.csv").write_text("\n".join([CACHE_HEADER, *rows]) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"zeros_q0005.csv, {message}")):
            read_zero_cache(tmp_path, 5)

    @pytest.mark.parametrize("block", [1, 3])
    def test_small_blocks_read_the_same_sets(self, tmp_path, monkeypatch, block):
        import zerokit.dirichlet.zerocache as cmod

        ZeroLibrary(tmp_path).ensure(5, 10.0)
        whole = read_zero_cache(tmp_path, 5)
        monkeypatch.setattr(cmod, "READ_BLOCK", block)
        blocked = read_zero_cache(tmp_path, 5)
        assert sorted(blocked) == sorted(whole)
        for exps, zs in whole.items():
            assert np.array_equal(blocked[exps].gamma, zs.gamma) and np.array_equal(blocked[exps].radius, zs.radius)

    def test_header_contract(self, tmp_path):
        zs = scan_zeros(CHI4, 8.0)
        path = write_zero_cache(tmp_path, {CHI4.exponents: zs})
        first = path.read_text().splitlines()[0]
        assert first == CACHE_HEADER == "modulus,char_exponents,beta,gamma,radius,complete_to_height"

    def test_empty_set_round_trips(self, tmp_path):
        zs = scan_zeros(CHI4, 0.5)
        write_zero_cache(tmp_path, {CHI4.exponents: zs})
        loaded = read_zero_cache(tmp_path, 4)
        assert len(loaded[CHI4.exponents].gamma) == 0
        assert loaded[CHI4.exponents].complete_to_height >= 0.5

    def test_library_idempotent(self, tmp_path):
        lib = ZeroLibrary(tmp_path)
        first = lib.ensure(4, 8.0)
        assert first == {"q4.e1": 2}
        again = lib.ensure(4, 8.0)
        assert again == {"q4.e1": "cached"}
        deeper = lib.ensure(4, 12.0)
        assert deeper == {"q4.e1": 4}

    def test_ensure_builds_one_engine_for_the_characters_it_scans(self, tmp_path, monkeypatch):
        import zerokit.dirichlet.zerocache as cmod

        built = []

        def counting(chars, T):
            built.append(([c.exponents for c in chars], T))
            return ModulusEngine(chars, T)

        monkeypatch.setattr(cmod, "ModulusEngine", counting)
        lib = ZeroLibrary(tmp_path)
        summary = lib.ensure(5, 10.0)
        # q5.e3 is the conjugate of q5.e1: two canonical characters, one engine
        assert built == [([(1,), (2,)], 10.0)]
        labels = ["q5.e1", "q5.e2", "q5.e3"]
        assert summary == {label: len(lib.get(chi, 10.0).zeros) for label, chi in zip(labels, primitive_characters(5))}
        assert lib.ensure(5, 10.0) == dict.fromkeys(labels, "cached")
        assert len(built) == 1

    def test_interrupted_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        import zerokit.dirichlet.zerocache as cmod

        ZeroLibrary(tmp_path).ensure(4, 8.0)
        path = tmp_path / "zeros_q0004.csv"
        before = path.read_text()

        def crash(src, dst):
            raise OSError("crash before the rename")

        monkeypatch.setattr(cmod.os, "replace", crash)
        with pytest.raises(OSError, match="crash"):
            ZeroLibrary(tmp_path).ensure(4, 12.0)
        monkeypatch.undo()
        assert path.read_text() == before
        assert ZeroLibrary(tmp_path).ensure(4, 8.0) == {"q4.e1": "cached"}
        assert len(read_zero_cache(tmp_path, 4)[CHI4.exponents].zeros) == 2

    def test_cold_reload_from_disk(self, tmp_path):
        ZeroLibrary(tmp_path).ensure(5, 10.0)
        fresh = ZeroLibrary(tmp_path)
        summary = fresh.ensure(5, 10.0)
        assert set(summary.values()) == {"cached"}
        chi = primitive_characters(5)[0]
        assert len(fresh.get(chi, 10.0).gamma)

    def test_library_resolves_imprimitive(self, zero_library):
        principal12 = enumerate_characters(12)[0]
        zs = zero_library.get(principal12, 40.0)
        assert zs.character.modulus == 1  # resolved to the inducing character

    def test_missing_data_raises(self, tmp_path):
        from zerokit.dirichlet.zerocache import DependencyError

        lib = ZeroLibrary(tmp_path)
        with pytest.raises(DependencyError):
            lib.get(CHI4, 10.0)


class TestAgainstLibrary:
    def test_all_library_sets_certified(self, zero_library):
        assert zero_library.certified()

    def test_ordinates_match_the_benchmark_reference(self, zero_library):
        # perfbench/reference/zeros.json holds every zero of the library's
        # characters, each refined to about 1e-14 on Z(t)
        path = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "zeros.json"
        reference = json.loads(path.read_text())["zeros"]
        worst = 0.0
        for q, height in [(q, 51.0) for q in range(1, 21)] + [(1, 101.0), (4, 101.0)]:
            for chi in primitive_characters(q):
                mine = np.array([z.gamma for z in zero_library.get(chi, height).zeros if abs(z.gamma) <= height])
                ref = np.array(reference[str(q)][exponent_key(chi)]["gammas"])
                ref = ref[np.abs(ref) <= height]
                assert len(mine) == len(ref), (chi, height)
                if len(ref):
                    worst = max(worst, float(np.max(np.abs(mine - ref))))
        assert worst <= 1e-10

    @pytest.mark.parametrize("q", [5, 12, 19])
    def test_one_character_scan_matches_the_bank(self, zero_library, q):
        # scan_zeros alone builds a one-character engine; the library built
        # one engine for the modulus and mirrored the conjugates
        for chi in primitive_characters(q):
            alone = scan_zeros(chi, 51.0)
            banked = zero_library.get(chi, 51.0)
            assert alone.certified
            assert len(alone.zeros) == len(banked.zeros)
            assert [z.gamma for z in alone.zeros] == pytest.approx([z.gamma for z in banked.zeros], abs=1e-12)
            assert all(z.certified_radius == TARGET_RADIUS for z in alone.zeros)

    def test_counts_match_scans_for_modulus_nine(self, zero_library):
        # 50.5 lies at least 0.2 from every zero mod 9 (50.0 is 0.0097 from
        # one of q9.e2), so the count's horizontal edges are clear of zeros.
        for chi in primitive_characters(9):
            zs = zero_library.get(chi, 50.5)
            expected = count_zeros(chi, 50.5)
            assert sum(1 for z in zs.zeros if abs(z.gamma) <= 50.5) == expected
