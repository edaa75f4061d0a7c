import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigfit import ingest, synth
from sigfit.errors import (
    ChannelOutOfRangeError,
    CountMismatchError,
    DirectoryNotFoundError,
    EmptyInputError,
    InvalidParamsError,
    LengthMismatchError,
    MalformedLineError,
)

TABLE_STYLE_FILE = "2\n2288 7111 75748770 0 1310 680 244\n2252 7058 75748780 1 1320 650 247\n"


class TestParseSample:
    def test_known_rows(self):
        sample = ingest.parse_sample(TABLE_STYLE_FILE, user_id="1", sample_index=1)
        assert sample.n_points == 2
        x, y, timestamp, button_status, azimuth, altitude, pressure = sample.data.T.tolist()
        assert (x[0], y[0], timestamp[0]) == (2288, 7111, 75748770)
        assert (button_status[0], azimuth[0]) == (0, 1310)
        assert (altitude[0], pressure[0]) == (680, 244)
        assert (x[1], y[1], button_status[1]) == (2252, 7058, 1)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            ingest.parse_sample("")
        with pytest.raises(EmptyInputError):
            ingest.parse_sample("   \n  ")

    def test_malformed_line_field_count(self):
        with pytest.raises(MalformedLineError) as err:
            ingest.parse_sample("1\n1 2 3 4 5 6\n")
        assert err.value.line_no == 2

    def test_malformed_line_non_integer(self):
        with pytest.raises(MalformedLineError):
            ingest.parse_sample("1\n1 2 3 x 5 6 7\n")

    def test_count_mismatch(self):
        with pytest.raises(CountMismatchError):
            ingest.parse_sample("3\n1 2 3 0 5 6 7\n1 2 3 0 5 6 7\n")

    def test_round_trip_canonicalizes_whitespace(self):
        messy = "2\n  2288\t7111  75748770 0 1310 680 244\n2252 7058 75748780 1 1320 650 247  \n"
        sample = ingest.parse_sample(messy)
        assert ingest.serialize_sample(sample) == TABLE_STYLE_FILE

    def test_round_trip_over_generated_files(self):
        # round-trip oracle: serialize(parse(f)) == f for canonical files
        for sample in synth.generate_samples(n_users=1, genuine=3, forged=2):
            text = ingest.serialize_sample(sample)
            back = ingest.parse_sample(text, sample.user_id, sample.sample_index, sample.label)
            assert ingest.serialize_sample(back) == text
            np.testing.assert_array_equal(back.data, sample.data)

    def test_text_equals_the_per_value_formula(self):
        # the row text built from Python ints is the text of int(v) per value
        def per_value(sample):
            rows = (" ".join(str(int(v)) for v in row) for row in sample.data)
            return "\n".join([str(sample.n_points), *rows]) + "\n"

        messy = "2\n -7 0  9223372036854775807 1 0 -1 3\n1 2 3 4 5 6 7\n"
        samples = [*synth.generate_samples(n_users=1, genuine=1, forged=1),
                   ingest.parse_sample(messy)]
        for sample in samples:
            assert ingest.serialize_sample(sample).encode() == per_value(sample).encode()

    @pytest.mark.parametrize(
        "token", [str(2**63), str(-(2**63) - 1), "99999999999999999999", "-00099999999999999999999"]
    )
    def test_an_integer_outside_int64_raises_on_its_line(self, token):
        text = f"2\n1 2 3 4 5 6 7\n1 2 {token} 4 5 6 7\n"
        with pytest.raises(MalformedLineError) as err:
            ingest.parse_sample(text)
        assert err.value.line_no == 3

    def test_the_int64_bounds_parse(self):
        low, high = -(2**63), 2**63 - 1
        text = f"2\n{low} 0 {high} 0 0 0 0\n+{high} -0 000{high} 1 2 3 -{-low}\n"
        sample = ingest.parse_sample(text)
        assert sample.data.tolist() == [[low, 0, high, 0, 0, 0, 0], [high, 0, high, 1, 2, 3, low]]

    @pytest.mark.parametrize("token", ["1_000", "\u0663", "\uff11", "+", "-", "1-2", "+-1", "1.0"])
    def test_a_token_that_is_not_an_ascii_integer_raises(self, token):
        with pytest.raises(MalformedLineError) as err:
            ingest.parse_sample(f"2\n1 2 3 4 5 6 7\n\n1 2 3 {token} 5 6 7\n")
        assert err.value.line_no == 4

    def test_a_zero_count_is_an_empty_sample(self):
        with pytest.raises(EmptyInputError, match="at least 2 points"):
            ingest.parse_sample("0\n")

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_agrees_with_the_per_line_reference(self, data):
        rows = data.draw(st.lists(st.lists(INT64, min_size=7, max_size=7), min_size=2, max_size=6))
        lines = [str(len(rows)) + data.draw(COUNT_LINE_EXTRAS)]
        starts = []  # index in ``lines`` of each row
        for row in rows:
            lines.extend(data.draw(st.lists(PADDING, max_size=2)))  # blank lines
            starts.append(len(lines))
            lines.append(data.draw(_row_text(row)))
        ends = data.draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(lines), max_size=len(lines)))
        ends[-1] = data.draw(st.sampled_from(["", *LINE_ENDS]))
        text = "".join(line + end for line, end in zip(lines, ends))
        parsed = ingest.parse_sample(text).data
        assert parsed.dtype == np.int64
        np.testing.assert_array_equal(parsed, _reference_parse(text))

        # one mutated row raises on that row's line, as the reference does
        i = data.draw(st.integers(0, len(rows) - 1))
        tokens = _FIELDS.findall(lines[starts[i]])
        j = data.draw(st.integers(0, 6))
        mutation = data.draw(st.sampled_from(["6 fields", "8 fields", "non-integer", "2**63"]))
        if mutation == "6 fields":
            del tokens[j]
        elif mutation == "8 fields":
            tokens.insert(j, "1")
        else:
            tokens[j] = data.draw(NON_INTEGERS) if mutation == "non-integer" else str(2**63)
        lines[starts[i]] = data.draw(SEPARATOR).join(tokens)
        text = "".join(line + end for line, end in zip(lines, ends))
        prefix = "".join(line + end for line, end in zip(lines[: starts[i]], ends))
        line_no = len(prefix.splitlines()) + 1
        for parse in (ingest.parse_sample, _reference_parse):
            with pytest.raises(MalformedLineError) as err:
                parse(text)
            assert err.value.line_no == line_no


INT64 = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([-(2**63), -1, 0, 2**63 - 1])
PADDING = st.text(alphabet=" \t", max_size=2)
SEPARATOR = st.text(alphabet=" \t", min_size=1, max_size=3)
LINE_ENDS = ["\n", "\r\n", "\r"]
COUNT_LINE_EXTRAS = st.sampled_from(["", " ", " 7", "\tx  y", " 1_000 \t-"])
NON_INTEGERS = st.sampled_from(["x", "1.5", "1_000", "--1", "+", "1-2", "0x1f", "\u0663"])
_FIELDS = re.compile(r"[^ \t]+")


@st.composite
def _row_text(draw, row):
    tokens = []
    for value in row:
        sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
        tokens.append(sign + draw(st.sampled_from(["", "0", "00"])) + str(abs(value)))
    separators = draw(st.lists(SEPARATOR, min_size=6, max_size=6))
    body = tokens[0] + "".join(s + t for s, t in zip(separators, tokens[1:]))
    return draw(PADDING) + body + draw(PADDING)


def _reference_parse(text):
    """The line-by-line parser, on text that holds no other whitespace than the grammar's."""
    lines = text.strip().splitlines()
    declared = int(lines[0].split()[0])
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 7:
            raise MalformedLineError(line_no, f"expected 7 fields, got {len(fields)}")
        if not all(re.fullmatch(r"[+-]?[0-9]+", f) for f in fields):
            raise MalformedLineError(line_no, f"non-integer token in {line!r}")
        values = [int(f) for f in fields]
        if not all(-(2**63) <= v < 2**63 for v in values):
            raise MalformedLineError(line_no, f"integer outside int64 in {line!r}")
        rows.append(values)
    assert len(rows) == declared
    return np.array(rows, dtype=np.int64)


class TestExtractChannel:
    def test_channel_values_match_columns(self, small_dataset):
        sample = small_dataset[0]
        series = ingest.extract_channel(sample, 1)
        np.testing.assert_array_equal(series.ordinate, sample.data[:, 0].astype(float))
        np.testing.assert_array_equal(series.abscissa, np.arange(sample.n_points))

    def test_all_pen_down_gives_ones(self):
        data = np.array([[1, 2, 10, 1, 4, 5, 6], [2, 3, 20, 1, 4, 5, 6]], dtype=np.int64)
        sample = ingest.SignatureSample("u", 1, ingest.GENUINE, data)
        series = ingest.extract_channel(sample, 4)
        np.testing.assert_array_equal(series.ordinate, [1.0, 1.0])

    def test_every_channel_has_sample_length(self, small_dataset):
        for sample in small_dataset[:10]:
            for channel in range(1, 8):
                assert len(ingest.extract_channel(sample, channel)) == sample.n_points

    def test_out_of_range(self, small_dataset):
        with pytest.raises(ChannelOutOfRangeError):
            ingest.extract_channel(small_dataset[0], 0)
        with pytest.raises(ChannelOutOfRangeError):
            ingest.extract_channel(small_dataset[0], 8)

    @pytest.mark.parametrize("channels, error, message", [
        ((0,), ChannelOutOfRangeError, "channel 0 not in 1..7"),
        ((1, 8), ChannelOutOfRangeError, "channel 8 not in 1..7"),
        ((), InvalidParamsError, "no channels"),
        ((1, 1), InvalidParamsError, "repeat"),
    ])
    def test_the_channel_rule(self, channels, error, message):
        with pytest.raises(error, match=re.escape(message)):
            ingest.check_channels(channels)
        assert ingest.check_channels((3, 1, 7)) == (3, 1, 7)

    def test_projection_is_pure(self, small_dataset):
        sample = small_dataset[0]
        before = sample.data.copy()
        series = ingest.extract_channel(sample, 2)
        series.ordinate[:] = -1.0
        np.testing.assert_array_equal(sample.data, before)

    def test_timestamp_abscissa_starts_at_zero(self, small_dataset):
        series = ingest.extract_channel(small_dataset[0], 1, abscissa="timestamp")
        assert series.abscissa[0] == 0.0
        assert np.all(np.diff(series.abscissa) > 0)

    def test_values_are_floats(self, small_dataset):
        series = ingest.extract_channel(small_dataset[0], 7)
        assert series.ordinate.dtype == np.float64


class TestChannelSeries:
    def test_unequal_lengths_raise_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            ingest.ChannelSeries(np.arange(5.0), np.zeros(4))

    @pytest.mark.parametrize("x", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0]], ids=["repeat", "decrease"])
    def test_non_increasing_abscissa_raises_invalid_params(self, x):
        with pytest.raises(InvalidParamsError, match="strictly increasing"):
            ingest.ChannelSeries(np.asarray(x), np.zeros(3))

    @pytest.mark.parametrize("abscissa", ["index", "timestamp"])
    def test_on_unit_interval_rescales_a_part(self, small_dataset, abscissa):
        series = ingest.extract_channel(small_dataset[0], 1, abscissa)
        x, y = series.abscissa[37:57], series.ordinate[37:57]
        unit = ingest.ChannelSeries(x, y).on_unit_interval()
        assert unit.abscissa[0] == 0.0 and unit.abscissa[-1] == 1.0
        assert unit.abscissa.tobytes() == ((x - x[0]) / (x[-1] - x[0])).tobytes()
        assert unit.ordinate is y


class TestCheckSample:
    def test_decreasing_timestamp_warns_with_position(self):
        data = np.array(
            [[1, 2, 100, 1, 4, 5, 6], [2, 3, 90, 1, 4, 5, 6], [3, 4, 95, 1, 4, 5, 6]],
            dtype=np.int64,
        )
        sample = ingest.SignatureSample("u", 1, ingest.GENUINE, data)
        warnings = ingest.check_sample(sample, source="f.TXT")
        assert len(warnings) == 1
        assert "f.TXT" in warnings[0] and "point 2" in warnings[0]

    def test_a_blank_line_does_not_move_the_position(self):
        text = "3\n1 2 100 1 4 5 6\n\n2 3 90 1 4 5 6\n3 4 95 1 4 5 6\n"
        warnings = ingest.check_sample(ingest.parse_sample(text), source="f.TXT")
        assert warnings == ["f.TXT: timestamp decreases at point 2"]

    def test_clean_sample_has_no_warnings(self, small_dataset):
        assert ingest.check_sample(small_dataset[0]) == []


class TestLoadDataset:
    def test_one_user_layout(self, tmp_path):
        synth.write_dataset(tmp_path, n_users=1)
        index = ingest.load_dataset(tmp_path)
        assert index.counts() == {"1": (20, 20)}
        samples = index.samples()
        assert [s.sample_index for s in samples if s.label == ingest.GENUINE] == list(range(1, 21))
        assert [s.sample_index for s in samples if s.label == ingest.FORGED] == list(range(21, 41))
        assert not index.errors

    def test_numeric_user_ids_sort_as_numbers(self, tmp_path):
        for name in ("U10S1.TXT", "U10S21.TXT", "U2S21.TXT", "U2S1.TXT"):
            (tmp_path / name).write_text(TABLE_STYLE_FILE)
        index = ingest.load_dataset(tmp_path)
        assert [(s.user_id, s.sample_index) for s in index.samples()] == [
            ("2", 1), ("2", 21), ("10", 1), ("10", 21)
        ]
        assert list(index.counts().items()) == [("2", (1, 1)), ("10", (1, 1))]

    def test_sample_order_puts_numeric_users_first(self, small_dataset):
        data = small_dataset[0].data
        samples = [
            ingest.SignatureSample(user, index, ingest.GENUINE, data)
            for user, index in (("b", 1), ("10", 2), ("a", 3), ("²", 4), ("10", 1), ("9", 5))
        ]
        ordered = sorted(samples, key=ingest.sample_order)  # "²" is a digit int() refuses
        assert [(s.user_id, s.sample_index) for s in ordered] == [
            ("9", 5), ("10", 1), ("10", 2), ("a", 3), ("b", 1), ("²", 4)
        ]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DirectoryNotFoundError):
            ingest.load_dataset(tmp_path / "nope")

    def test_empty_directory_warns(self, tmp_path):
        index = ingest.load_dataset(tmp_path)
        assert index.counts() == {}
        assert any("no files matched" in w for w in index.warnings)

    def test_bad_file_is_isolated(self, tmp_path):
        synth.write_dataset(tmp_path, n_users=1, genuine=2, forged=1)
        (tmp_path / "U1S2.TXT").write_text("5\n1 2 3\n")
        index = ingest.load_dataset(tmp_path)
        assert len(index.errors) == 1
        assert "U1S2.TXT" in index.errors[0].path
        # labels come from the file-name convention: the forgery is written as S21
        assert index.counts() == {"1": (1, 1)}

    def test_histogram_reports_point_counts(self, tmp_path):
        synth.write_dataset(tmp_path, n_users=1, genuine=3, forged=0)
        index = ingest.load_dataset(tmp_path)
        histogram = index.point_count_histogram()
        assert sum(histogram.values()) == 3

    def test_manifest_entries(self, tmp_path):
        synth.write_dataset(tmp_path, n_users=1, genuine=2, forged=2)
        index = ingest.load_dataset(tmp_path)
        manifest = ingest.dataset_manifest(index)
        assert len(manifest["samples"]) == 4
        entry = manifest["samples"][0]
        assert set(entry) == {"user_id", "sample_index", "label", "n_points", "source_path"}
        assert entry["source_path"] == str(tmp_path / "U1S1.TXT")
        assert json.loads(json.dumps(manifest, indent=2)) == manifest

    def test_manifest_names_the_file_that_was_read(self, tmp_path):
        # zero-padded numbers and a lower-case suffix, as some corpora ship
        (tmp_path / "U01S01.txt").write_text(TABLE_STYLE_FILE)
        index = ingest.load_dataset(tmp_path)
        (entry,) = ingest.dataset_manifest(index)["samples"]
        assert (entry["user_id"], entry["sample_index"]) == ("1", 1)
        assert entry["source_path"] == str(tmp_path / "U01S01.txt")

    def test_numbers_are_integers_and_duplicates_are_reported(self, tmp_path):
        synth.write_dataset(tmp_path, n_users=1, genuine=2, forged=0)
        first = (tmp_path / "U1S1.TXT").read_text()
        (tmp_path / "U1S01.txt").write_text(first)
        (tmp_path / "U01S01.txt").write_text(first)
        index = ingest.load_dataset(tmp_path)
        assert index.counts() == {"1": (2, 0)}
        # the first of each (user, sample) in sorted name order is the one kept
        kept = [s.source_path for s in index.samples()]
        assert kept == [str(tmp_path / "U01S01.txt"), str(tmp_path / "U1S2.TXT")]
        assert sorted(e.path for e in index.errors) == [
            str(tmp_path / "U1S01.txt"), str(tmp_path / "U1S1.TXT")
        ]
        assert all("duplicate of" in e.error and "U01S01.txt" in e.error for e in index.errors)

    def test_an_out_of_range_or_undecodable_file_is_listed_in_errors(self, tmp_path):
        synth.write_dataset(tmp_path, n_users=1, genuine=3, forged=0)
        (tmp_path / "U1S2.TXT").write_text("2\n99999999999999999999 2 3 4 5 6 7\n1 2 3 4 5 6 7\n")
        (tmp_path / "U1S3.TXT").write_bytes(b"2\n1 2 3 4 5 6 7\n1 2 3 \xff 5 6 7\n")
        index = ingest.load_dataset(tmp_path)
        assert index.counts() == {"1": (1, 0)}
        errors = {Path(e.path).name: e.error for e in index.errors}
        assert errors["U1S2.TXT"].startswith("MalformedLineError: line 2:")
        assert errors["U1S3.TXT"].startswith("UnicodeDecodeError:")

    def test_a_bad_file_does_not_shadow_its_duplicate(self, tmp_path):
        (tmp_path / "U01S01.txt").write_text("5\n1 2 3\n")
        (tmp_path / "U1S1.TXT").write_text(TABLE_STYLE_FILE)
        index = ingest.load_dataset(tmp_path)
        assert index.counts() == {"1": (1, 0)}
        assert [e.path for e in index.errors] == [str(tmp_path / "U01S01.txt")]
