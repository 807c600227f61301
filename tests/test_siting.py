"""Exclusion layers, buffering, composites, parcels, and the catalog."""

import dataclasses
import io
import json

import numpy as np
import pytest
from scipy import ndimage

from mgplan import (
    CompositeMap,
    ExclusionRule,
    GridRaster,
    HourlyProfile,
    UNIT_CAPACITY_FACTOR,
    ValidationError,
    aggregate_parcels,
    apply_exclusion_rule,
    buffer_violations,
    composite,
    representative_profile,
)
from mgplan.siting import (
    MODE_ABOVE,
    MODE_BELOW,
    MODE_BINARY,
    attach_representative_profiles,
    catalog_from_json,
    catalog_to_json,
    load_siting_config,
    read_ascii_grid,
    write_ascii_grid,
)


def raster(cells, cell_size=90.0, **kwargs):
    return GridRaster(np.asarray(cells, dtype=float), cell_size, **kwargs)


def disc_dilation(violated, radius):
    """Reference buffer: dilate by the disc of integer offsets (di, dj)
    with di^2 + dj^2 <= radius^2."""
    if radius == 0:
        return violated.copy()
    offsets = np.arange(-radius, radius + 1)
    disc = offsets[:, None] ** 2 + offsets[None, :] ** 2 <= radius**2
    return ndimage.binary_dilation(violated, structure=disc)


class TestExclusionRule:
    def test_threshold_required_for_threshold_mode(self):
        with pytest.raises(ValidationError, match="requires a threshold"):
            ExclusionRule("slope", MODE_ABOVE)

    def test_threshold_forbidden_for_binary(self):
        with pytest.raises(ValidationError, match="must not carry"):
            ExclusionRule("wetlands", MODE_BINARY, threshold=1.0)

    def test_unknown_mode(self):
        with pytest.raises(ValidationError, match="unknown rule mode"):
            ExclusionRule("x", "sometimes")


class TestApplyRule:
    def test_slope_above_threshold(self):
        # Slope above 5% is excluded.
        layer = raster([[3.0, 6.0]], unit="%")
        rule = ExclusionRule("slope", MODE_ABOVE, threshold=5.0, threshold_unit="%")
        out = apply_exclusion_rule(layer, rule)
        np.testing.assert_array_equal(out.cells, [[0.0, 1.0]])

    def test_all_zero_binary_layer(self):
        layer = raster(np.zeros((3, 3)))
        out = apply_exclusion_rule(layer, ExclusionRule("roads", MODE_BINARY))
        assert out.cells.sum() == 0.0

    def test_radiation_below_threshold(self):
        # Solar resource below 4.8 kWh/m2/day is excluded.
        layer = raster([[5.1, 4.2]], unit="kWh/m2/day")
        rule = ExclusionRule(
            "radiation", MODE_BELOW, threshold=4.8, threshold_unit="kWh/m2/day"
        )
        out = apply_exclusion_rule(layer, rule)
        np.testing.assert_array_equal(out.cells, [[0.0, 1.0]])

    def test_nodata_is_violation(self):
        layer = raster([[0.0, -999.0]], nodata=-999.0)
        out = apply_exclusion_rule(layer, ExclusionRule("wetlands", MODE_BINARY))
        np.testing.assert_array_equal(out.cells, [[0.0, 1.0]])

    def test_unit_mismatch(self):
        layer = raster([[1.0]], unit="m")
        rule = ExclusionRule("slope", MODE_ABOVE, threshold=5.0, threshold_unit="%")
        with pytest.raises(ValidationError, match="unit mismatch"):
            apply_exclusion_rule(layer, rule)


class TestBuffer:
    def test_zero_distance_identity(self):
        b = raster(np.eye(5))
        out = buffer_violations(b, 0.0)
        np.testing.assert_array_equal(out.cells, b.cells)

    def test_one_cell_disc(self):
        cells = np.zeros((5, 5))
        cells[2, 2] = 1.0
        out = buffer_violations(raster(cells), 90.0)
        assert out.cells.sum() == 5  # center + 4 orthogonal neighbours

    def test_two_cell_disc(self):
        # Independent enumeration of integer offsets within distance 2.
        expected = sum(
            1
            for di in range(-2, 3)
            for dj in range(-2, 3)
            if di * di + dj * dj <= 4
        )
        cells = np.zeros((9, 9))
        cells[4, 4] = 1.0
        out = buffer_violations(raster(cells), 180.0)
        assert out.cells.sum() == expected == 13

    def test_negative_distance(self):
        with pytest.raises(ValidationError, match="negative buffer"):
            buffer_violations(raster(np.zeros((2, 2))), -1.0)

    def test_requires_binary(self):
        with pytest.raises(ValidationError, match="binary"):
            buffer_violations(raster([[0.5]]), 90.0)

    @pytest.mark.parametrize("radius", range(21))
    def test_matches_disc_dilation_on_random_maps(self, radius):
        rng = np.random.default_rng(100 + radius)
        violated = rng.random((37, 53)) < 0.01
        violated[rng.integers(37), rng.integers(53)] = True
        # A distance just under the radius still rounds up to it.
        for distance in {radius * 90.0, max(radius - 0.5, 0.0) * 90.0}:
            out = buffer_violations(raster(violated), distance)
            np.testing.assert_array_equal(out.cells.astype(bool), disc_dilation(violated, radius))

    @pytest.mark.parametrize("radius", [1, 3, 20])
    def test_no_violations(self, radius):
        out = buffer_violations(raster(np.zeros((9, 11))), radius * 90.0)
        assert not out.cells.any()

    @pytest.mark.parametrize("radius", [1, 3, 20])
    def test_all_violated(self, radius):
        out = buffer_violations(raster(np.ones((9, 11))), radius * 90.0)
        assert out.cells.all()

    @pytest.mark.parametrize("radius", [1, 2, 5, 12])
    def test_border_violations(self, radius):
        violated = np.zeros((24, 31), dtype=bool)
        violated[0, 0] = violated[-1, 17] = violated[9, -1] = violated[23, 30] = True
        out = buffer_violations(raster(violated), radius * 90.0)
        np.testing.assert_array_equal(out.cells.astype(bool), disc_dilation(violated, radius))

    @pytest.mark.parametrize("d1,d2", [(0.0, 90.0), (90.0, 180.0), (90.0, 450.0)])
    def test_monotone_in_distance(self, d1, d2):
        rng = np.random.default_rng(3)
        cells = (rng.random((12, 12)) < 0.1).astype(float)
        small = buffer_violations(raster(cells), d1).cells
        large = buffer_violations(raster(cells), d2).cells
        assert np.all(large >= small)


class TestComposite:
    def test_single_zero_layer(self):
        comp = composite([raster(np.zeros((2, 2)))])
        assert comp.counts.sum() == 0
        assert comp.viable_mask().all()

    def test_counts_are_sums(self):
        a = raster([[0.0, 1.0]])
        b = raster([[1.0, 1.0]])
        comp = composite([a, b])
        np.testing.assert_array_equal(comp.counts, [[1, 2]])

    def test_empty_list(self):
        with pytest.raises(ValidationError, match="at least one layer required"):
            composite([])

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shape mismatch"):
            composite([raster(np.zeros((2, 2))), raster(np.zeros((3, 2)))])

    def test_counts_exact_over_random_layers(self):
        rng = np.random.default_rng(11)
        layers = [(rng.random((6, 7)) < 0.4).astype(float) for _ in range(4)]
        comp = composite([raster(layer) for layer in layers])
        np.testing.assert_array_equal(comp.counts, np.sum(layers, axis=0))
        assert comp.counts.max() <= 4


class TestAggregate:
    def test_fully_viable_block(self):
        comp = CompositeMap(np.zeros((64, 64), dtype=int), 90.0)
        catalog = aggregate_parcels(comp, block_cells=64, power_density_mw_per_km2=36.0)
        assert len(catalog) == 1
        parcel = catalog.parcels[0]
        assert parcel.viable_area_km2 == pytest.approx(33.1776)
        assert parcel.nameplate_mw == pytest.approx(1194.3936)

    def test_fully_excluded_block_omitted(self):
        comp = CompositeMap(np.ones((64, 64), dtype=int), 90.0)
        catalog = aggregate_parcels(comp)
        assert len(catalog) == 0

    def test_single_viable_cell(self):
        counts = np.ones((64, 64), dtype=int)
        counts[10, 10] = 0
        catalog = aggregate_parcels(CompositeMap(counts, 90.0))
        parcel = catalog.parcels[0]
        assert parcel.viable_area_km2 == pytest.approx(0.0081)
        assert parcel.nameplate_mw == pytest.approx(0.2916)

    def test_ordering_and_indices(self):
        counts = np.ones((64, 128), dtype=int)
        counts[:, 64:70] = 0  # right block: 64*6 viable cells
        counts[0, 0] = 0  # left block: 1 viable cell
        catalog = aggregate_parcels(CompositeMap(counts, 90.0))
        indices = [p.site_index for p in catalog.parcels]
        nameplates = [p.nameplate_mw for p in catalog.parcels]
        assert indices == [1, 2]
        assert nameplates == sorted(nameplates)
        assert catalog[2] is catalog.parcels[1]
        with pytest.raises(KeyError, match="no parcel with site index 3"):
            catalog[3]

    def test_partial_edge_blocks(self):
        comp = CompositeMap(np.zeros((70, 64), dtype=int), 90.0)
        catalog = aggregate_parcels(comp, block_cells=64)
        areas = sorted(p.viable_area_km2 for p in catalog.parcels)
        assert areas == pytest.approx([6 * 64 * 0.0081, 64 * 64 * 0.0081])

    def test_monotone_shrinkage_under_extra_layer(self):
        rng = np.random.default_rng(5)
        base_layers = [(rng.random((128, 128)) < 0.2).astype(float) for _ in range(2)]
        extra = (rng.random((128, 128)) < 0.2).astype(float)
        comp_before = composite([raster(l) for l in base_layers])
        comp_after = composite([raster(l) for l in base_layers + [extra]])
        before = {
            (p.block_row, p.block_col): p.viable_area_km2
            for p in aggregate_parcels(comp_before, block_cells=32).parcels
        }
        after = {
            (p.block_row, p.block_col): p.viable_area_km2
            for p in aggregate_parcels(comp_after, block_cells=32).parcels
        }
        for key, area in after.items():
            assert area <= before[key] + 1e-12


class TestMeanoid:
    def test_single_member(self):
        member = HourlyProfile([0.1, 0.2], UNIT_CAPACITY_FACTOR)
        assert representative_profile([member]) is member

    def test_identical_members_tie_break(self):
        members = [HourlyProfile([0.3, 0.3], UNIT_CAPACITY_FACTOR) for _ in range(3)]
        assert representative_profile(members) is members[0]

    def test_worked_example(self):
        members = [
            HourlyProfile([0.0, 0.0], UNIT_CAPACITY_FACTOR),
            HourlyProfile([1.0, 1.0], UNIT_CAPACITY_FACTOR),
            HourlyProfile([0.4, 0.4], UNIT_CAPACITY_FACTOR),
        ]
        chosen = representative_profile(members)
        np.testing.assert_array_equal(chosen.values, [0.4, 0.4])

    def test_empty(self):
        with pytest.raises(ValidationError, match="at least one member"):
            representative_profile([])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(9)
        members = [
            HourlyProfile(rng.random(24), UNIT_CAPACITY_FACTOR) for _ in range(7)
        ]
        stack = np.stack([m.values for m in members])
        mean = stack.mean(axis=0)
        brute = min(
            range(len(members)),
            key=lambda i: float(np.linalg.norm(stack[i] - mean)),
        )
        assert representative_profile(members) is members[brute]


class TestAsciiGrid:
    def test_round_trip(self, tmp_path):
        r = GridRaster(
            np.array([[1.5, 2.0], [0.0, -1.0]]),
            cell_size_m=90.0,
            nodata=-1.0,
            xllcorner=100.0,
            yllcorner=200.0,
        )
        path = tmp_path / "grid.asc"
        write_ascii_grid(r, path)
        back = read_ascii_grid(path)
        np.testing.assert_array_equal(back.cells, r.cells)
        assert back.cell_size_m == 90.0
        assert back.nodata == -1.0
        assert back.xllcorner == 100.0

    def test_parse_reference_text(self):
        text = "ncols 3\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 90\n1 0 1\n0 0 0\n"
        r = read_ascii_grid(io.StringIO(text))
        assert r.shape == (2, 3)
        assert r.cells[0, 2] == 1.0

    def test_missing_header_key(self):
        with pytest.raises(ValidationError, match="missing 'cellsize'"):
            read_ascii_grid(io.StringIO("ncols 1\nnrows 1\n0\n"))

    def test_body_size_mismatch(self):
        text = "ncols 2\nnrows 2\ncellsize 90\n1 0 1\n"
        with pytest.raises(ValidationError, match="expected 4"):
            read_ascii_grid(io.StringIO(text))

    @pytest.mark.parametrize(
        "key,value,match",
        [
            ("ncols", "2.5", "'ncols' must be a positive integer, got 2.5"),
            ("ncols", "-2", "'ncols' must be a positive integer, got -2"),
            ("nrows", "-2", "'nrows' must be a positive integer, got -2"),
            ("ncols", "abc", "'ncols' is not a number: 'abc'"),
        ],
        ids=["ncols-fraction", "ncols-negative", "nrows-negative", "ncols-text"],
    )
    def test_bad_dimension(self, key, value, match):
        header = {"ncols": "2", "nrows": "2"}
        header[key] = value
        text = (
            f"ncols {header['ncols']}\nnrows {header['nrows']}\ncellsize 90\n"
            "1 0\n0 1\n"
        )
        with pytest.raises(ValidationError, match=match):
            read_ascii_grid(io.StringIO(text))

    def test_non_numeric_body_token(self):
        text = "ncols 2\nnrows 2\ncellsize 90\n1 0\n0 x\n"
        with pytest.raises(ValidationError, match="unparseable ASCII grid value"):
            read_ascii_grid(io.StringIO(text))

    def test_one_value_per_line(self):
        text = "ncols 3\nnrows 2\ncellsize 90\nNODATA_value -9\n1\n2\n-9\n4\n5.5\n6\n"
        r = read_ascii_grid(io.StringIO(text))
        np.testing.assert_array_equal(r.cells, [[1.0, 2.0, -9.0], [4.0, 5.5, 6.0]])
        assert r.nodata == -9.0


class TestCatalogJson:
    def test_round_trip_with_profiles(self, tmp_path):
        counts = np.ones((64, 64), dtype=int)
        counts[:2, :2] = 0
        catalog = aggregate_parcels(CompositeMap(counts, 90.0))
        members = [
            HourlyProfile([0.1, 0.2, 0.3], UNIT_CAPACITY_FACTOR),
            HourlyProfile([0.2, 0.2, 0.2], UNIT_CAPACITY_FACTOR),
        ]
        catalog = attach_representative_profiles(catalog, members)
        path = tmp_path / "catalog.json"
        catalog_to_json(catalog, path)
        back = catalog_from_json(path)
        assert len(back) == len(catalog)
        p0, p1 = back.parcels[0], catalog.parcels[0]
        assert p0.site_index == p1.site_index
        assert p0.nameplate_mw == pytest.approx(p1.nameplate_mw)
        np.testing.assert_array_equal(
            p0.representative_profile.values, p1.representative_profile.values
        )

    def test_read_back_parcels_share_one_profile(self, tmp_path):
        counts = np.ones((64, 128), dtype=int)
        counts[:2, :2] = 0
        counts[:3, 64:67] = 0
        catalog = aggregate_parcels(CompositeMap(counts, 90.0))
        members = [HourlyProfile([0.1, 0.2, 0.3], UNIT_CAPACITY_FACTOR, "pool")]
        catalog = attach_representative_profiles(catalog, members)
        path = tmp_path / "catalog.json"
        catalog_to_json(catalog, path)
        payload = json.loads(path.read_text())
        assert payload["profiles"] == [{"unit": "cf", "label": "pool", "values": [0.1, 0.2, 0.3]}]
        assert [p["profile"] for p in payload["parcels"]] == [0, 0]
        back = catalog_from_json(path)
        assert back.parcels == catalog.parcels
        first, second = (p.representative_profile for p in back.parcels)
        assert first.values is second.values
        assert first.label == "pool"

    def test_distinct_profiles_listed_once_each(self, tmp_path):
        comp = CompositeMap(np.zeros((2, 8), dtype=int), 90.0)
        catalog = aggregate_parcels(comp, block_cells=2)
        a = HourlyProfile([0.1, 0.2], UNIT_CAPACITY_FACTOR, "a")
        b = HourlyProfile([0.1, 0.2], UNIT_CAPACITY_FACTOR, "b")
        chosen = [a, b, None, a]
        catalog = dataclasses.replace(catalog, parcels=tuple(
            dataclasses.replace(parcel, representative_profile=profile)
            for parcel, profile in zip(catalog.parcels, chosen)
        ))
        path = tmp_path / "catalog.json"
        catalog_to_json(catalog, path)
        payload = json.loads(path.read_text())
        assert [entry["label"] for entry in payload["profiles"]] == ["a", "b"]
        assert [entry["profile"] for entry in payload["parcels"]] == [0, 1, None, 0]
        back = [p.representative_profile for p in catalog_from_json(path).parcels]
        assert back[0] is back[3]
        assert back[1] is not back[0] and back[1].label == "b"
        assert back[2] is None

    def test_parcels_without_profile(self, tmp_path):
        counts = np.zeros((8, 8), dtype=int)
        catalog = aggregate_parcels(CompositeMap(counts, 90.0), block_cells=4)
        path = tmp_path / "catalog.json"
        catalog_to_json(catalog, path)
        payload = json.loads(path.read_text())
        assert payload["profiles"] == []
        assert all(p["profile"] is None for p in payload["parcels"])
        back = catalog_from_json(path)
        assert back.parcels == catalog.parcels
        assert all(p.representative_profile is None for p in back.parcels)

    def test_thousand_parcels_with_a_year_profile_under_1mb(self, tmp_path):
        comp = CompositeMap(np.zeros((2, 2000), dtype=int), 90.0)
        catalog = aggregate_parcels(comp, block_cells=2)
        assert len(catalog) == 1000
        rng = np.random.default_rng(4)
        members = [HourlyProfile(rng.random(8760), UNIT_CAPACITY_FACTOR) for _ in range(3)]
        catalog = attach_representative_profiles(catalog, members)
        path = tmp_path / "catalog.json"
        catalog_to_json(catalog, path)
        assert path.stat().st_size < 1_000_000
        back = catalog_from_json(path)
        np.testing.assert_array_equal(
            back.parcels[-1].representative_profile.values,
            catalog.parcels[-1].representative_profile.values,
        )

    def _write_payload(self, tmp_path, parcels, profiles=None):
        payload = {
            "block_cells": 4,
            "cell_size_m": 90.0,
            "power_density_mw_per_km2": 36.0,
            "parcels": [
                {"site_index": index, "block_row": 0, "block_col": 4 * n,
                 "viable_area_km2": 0.1, "nameplate_mw": 3.6, **extra}
                for n, (index, extra) in enumerate(parcels)
            ],
        }
        if profiles is not None:
            payload["profiles"] = profiles
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(payload))
        return path

    def test_repeated_site_index_rejected(self, tmp_path):
        path = self._write_payload(
            tmp_path, [(1, {"profile": None}), (1, {"profile": None})], profiles=[]
        )
        with pytest.raises(ValidationError, match="repeats site index 1"):
            catalog_from_json(path)

    @pytest.mark.parametrize("ref", [1, -1, "0", True, 0.0])
    def test_profile_reference_outside_list_rejected(self, tmp_path, ref):
        profiles = [{"unit": "cf", "label": "", "values": [0.5, 0.5]}]
        path = self._write_payload(tmp_path, [(1, {"profile": ref})], profiles=profiles)
        with pytest.raises(ValidationError, match="lists 1 profile"):
            catalog_from_json(path)

    @pytest.mark.parametrize(
        "where, key, match",
        [
            ("parcel", "profile", "site 2 has no 'profile'"),
            ("parcel", "nameplate_mw", "site 2 has no 'nameplate_mw'"),
            ("parcel", "site_index", "site #2 has no 'site_index'"),
            ("catalog", "cell_size_m", "catalog has no 'cell_size_m'"),
            ("profile", "values", "profile 0 has no 'values'"),
        ],
    )
    def test_missing_field_rejected(self, tmp_path, where, key, match):
        profiles = [{"unit": "cf", "label": "", "values": [0.5, 0.5]}]
        path = self._write_payload(
            tmp_path, [(1, {"profile": 0}), (2, {"profile": 0})], profiles=profiles
        )
        payload = json.loads(path.read_text())
        target = {
            "parcel": payload["parcels"][1],
            "catalog": payload,
            "profile": payload["profiles"][0],
        }[where]
        del target[key]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=match):
            catalog_from_json(path)

    def test_inline_profile_format_rejected(self, tmp_path):
        inline = {"representative_profile": {"unit": "cf", "label": "", "values": [0.5]}}
        path = self._write_payload(tmp_path, [(1, inline)])
        with pytest.raises(ValidationError, match="re-run `mgplan site`"):
            catalog_from_json(path)

    def test_json_is_valid(self, tmp_path):
        counts = np.zeros((4, 4), dtype=int)
        catalog = aggregate_parcels(CompositeMap(counts, 90.0), block_cells=4)
        text = catalog_to_json(catalog)
        payload = json.loads(text)
        assert payload["power_density_mw_per_km2"] == 36.0


class TestSitingConfig:
    def write(self, tmp_path, **payload):
        config = {"layers": [{"path": "slope.asc", "name": "slope", "mode": "binary"}]}
        config.update(payload)
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(config))
        return path

    def test_defaults(self, tmp_path):
        config = load_siting_config(self.write(tmp_path))
        assert config.block_cells == 64
        assert config.profile_hours == 8760
        assert config.layers[0][0] == tmp_path / "slope.asc"

    @pytest.mark.parametrize(
        "layer,match",
        [
            ({"path": "slope.asc", "name": "slope"}, "layer 'slope' has no 'mode'"),
            ({"path": "slope.asc"}, "layer 'slope.asc' has no 'mode'"),
            ({"name": "wetlands", "mode": "binary"}, "layer 'wetlands' has no 'path'"),
            ({"mode": "binary"}, "layer '#1' has no 'path'"),
            ("slope.asc", "layer 1 must be an object"),
        ],
        ids=["no-mode", "no-mode-no-name", "no-path", "no-path-no-name", "not-an-object"],
    )
    def test_incomplete_layer_rejected(self, tmp_path, layer, match):
        with pytest.raises(ValidationError, match=match):
            load_siting_config(self.write(tmp_path, layers=[layer]))

    @pytest.mark.parametrize("key", ["block_cells", "profile_hours"])
    @pytest.mark.parametrize("value", [64.7, 64.0, "64", True, 0, -8])
    def test_non_integer_count_rejected(self, tmp_path, key, value):
        with pytest.raises(ValidationError, match=f"'{key}' must be a positive integer"):
            load_siting_config(self.write(tmp_path, **{key: value}))
