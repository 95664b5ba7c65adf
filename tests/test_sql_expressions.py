"""Expression compiler: schema resolution, operators, functions, LIKE."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.errors import BindError, ExecutionError
from repro.sql.expressions import Schema
from repro.sql.functions import GroupedAggregation, like_to_predicate


class TestSchema:
    def test_resolve_qualified_and_bare(self):
        schema = Schema([("t", "a"), ("t", "b"), ("u", "c")])
        assert schema.resolve("t", "a") == 0
        assert schema.resolve(None, "b") == 1
        assert schema.resolve("u", "c") == 2

    def test_case_insensitive(self):
        schema = Schema([("T", "Col")])
        assert schema.resolve("t", "col") == 0
        assert schema.resolve("T", "COL") == 0

    def test_ambiguous_bare_name_rejected(self):
        schema = Schema([("t", "a"), ("u", "a")])
        with pytest.raises(BindError):
            schema.resolve(None, "a")
        assert schema.resolve("u", "a") == 1

    def test_unknown_rejected(self):
        schema = Schema([("t", "a")])
        with pytest.raises(BindError):
            schema.resolve(None, "zz")
        assert schema.try_resolve(None, "zz") is None

    def test_concatenation(self):
        left = Schema([("t", "a")])
        right = Schema([("u", "b")])
        combined = left + right
        assert combined.resolve("u", "b") == 1
        assert combined.entries == [("T", "A"), ("U", "B")]


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.run_script(
        "CREATE TABLE v (id INT PRIMARY KEY, x INT, y FLOAT, s VARCHAR(20))")
    database.query(
        "INSERT INTO v (id, x, y, s) VALUES "
        "(1, 7, 2.5, 'hello'), (2, -3, 0.5, 'World'), (3, NULL, NULL, NULL)")
    return database


def scalar(db, expression, where="id = 1"):
    return db.query(f"SELECT {expression} FROM v WHERE {where}").scalar()


class TestOperators:
    def test_arithmetic(self, db):
        assert scalar(db, "x + 1") == 8
        assert scalar(db, "x - 10") == -3
        assert scalar(db, "x * 2") == 14
        assert scalar(db, "x / 2") == 3.5
        assert scalar(db, "x % 4") == 3

    def test_division_by_zero_raises(self, db):
        with pytest.raises(ExecutionError):
            scalar(db, "x / 0")

    @pytest.mark.parametrize("expression", ["x % 0", "MOD(x, 0)",
                                            "x % 0.0", "5 % 0"])
    def test_modulo_by_zero_raises_like_division(self, db, expression):
        with pytest.raises(ExecutionError, match="division by zero"):
            scalar(db, expression)

    def test_modulo_propagates_null(self, db):
        assert scalar(db, "MOD(x, 2)") == 1
        assert scalar(db, "x % NULL") is None
        assert scalar(db, "MOD(NULL, 0)") is None

    def test_unary_minus(self, db):
        assert scalar(db, "-x") == -7
        assert scalar(db, "-x", where="id = 3") is None

    def test_concatenation_operator(self, db):
        assert scalar(db, "s || '!'") == "hello!"
        assert scalar(db, "s || s", where="id = 3") is None

    def test_comparison_chaining_with_logic(self, db):
        assert db.query(
            "SELECT COUNT(*) FROM v WHERE x > 0 AND y < 3 OR s = 'World'"
        ).scalar() == 2

    def test_not(self, db):
        # documented pragmatic NULL handling: NULL comparisons are falsy,
        # so NOT over a NULL comparison is truthy (row id=3 qualifies)
        assert db.query(
            "SELECT COUNT(*) FROM v WHERE NOT x > 0").scalar() == 2

    def test_case_without_else_defaults_null(self, db):
        assert scalar(db, "CASE WHEN x < 0 THEN 1 END") is None

    def test_nested_case(self, db):
        result = scalar(
            db,
            "CASE WHEN x > 0 THEN CASE WHEN y > 1 THEN 'big' ELSE 'small' "
            "END ELSE 'neg' END")
        assert result == "big"


class TestScalarFunctions:
    def test_abs_round(self, db):
        assert scalar(db, "ABS(x)", where="id = 2") == 3
        assert scalar(db, "ROUND(y, 0)", where="id = 1") == 2.0

    def test_string_functions(self, db):
        assert scalar(db, "UPPER(s)") == "HELLO"
        assert scalar(db, "LOWER(s)", where="id = 2") == "world"
        assert scalar(db, "LENGTH(s)") == 5
        assert scalar(db, "SUBSTR(s, 2, 3)") == "ell"

    def test_functions_propagate_null(self, db):
        for expression in ("ABS(x)", "UPPER(s)", "LENGTH(s)"):
            assert scalar(db, expression, where="id = 3") is None

    @pytest.mark.parametrize("expression", [
        "SUBSTR(s, NULL)", "SUBSTR(s, NULL, 2)", "SUBSTR(s, 2, NULL)",
        "SUBSTR('ab', NULL)", "ROUND(y, NULL)", "ROUND(1.5, NULL)"])
    def test_null_position_length_or_digits_answers_null(self, db,
                                                         expression):
        assert scalar(db, expression) is None

    def test_substr_without_length_reads_to_the_end(self, db):
        assert scalar(db, "SUBSTR(s, 2)") == "ello"

    @pytest.mark.parametrize("expression,expected", [
        ("SUBSTR('abc', 0)", ""), ("SUBSTR('abc', 0, 2)", ""),
        ("SUBSTR('abc', -1)", "c"), ("SUBSTR('abc', -1, 2)", "c"),
        ("SUBSTR('abc', -3, 2)", "ab"), ("SUBSTR('abc', -4)", ""),
        ("SUBSTR('abc', 4)", ""), ("SUBSTR('abcdef', 3, -5)", ""),
        ("SUBSTR('abc', 2, 0)", ""), ("SUBSTRING('Sakila', -5, 3)", "aki")])
    def test_substr_positions_count_as_in_mysql(self, expression, expected):
        """A start of 0 or before the string answers ''; a negative start
        counts back from the end; a length below 1 answers ''."""
        assert Database().query(f"SELECT {expression}").scalar() == expected

    @pytest.mark.parametrize("expression", [
        "ABS(1, 2)", "UPPER()", "SUBSTR('a')", "SUBSTR('a', 1, 2, 3)",
        "ROUND(1, 2, 3)", "MOD(5)", "LENGTH(s, s)"])
    def test_wrong_argument_count_is_rejected_at_prepare(self, db,
                                                         expression):
        with pytest.raises(BindError, match="wrong number of arguments"):
            db.prepare(f"SELECT {expression} FROM v")

    def test_unknown_function_rejected(self, db):
        with pytest.raises(ExecutionError):
            db.query("SELECT SOUNDEX(s) FROM v")


class TestLikeMatching:
    @pytest.mark.parametrize("pattern,text,expected", [
        ("a%", "abc", True),
        ("a%", "bac", False),
        ("%c", "abc", True),
        ("a_c", "abc", True),
        ("a_c", "abbc", False),
        ("%", "", True),
        ("", "", True),
        ("a.c", "abc", False),      # regex metachars are literal
        ("a.c", "a.c", True),
        ("100%", "100%", True),
        ("%ell%", "hello", True),
    ])
    def test_patterns(self, pattern, text, expected):
        assert like_to_predicate(pattern)(text) is expected

    def test_null_never_matches(self):
        assert like_to_predicate("%")(None) is False

    @given(st.text(alphabet="abc", max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_percent_matches_everything(self, text):
        assert like_to_predicate("%")(text)

    @given(st.text(alphabet="ab_%", min_size=0, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_exact_pattern_matches_itself_when_no_wildcards(self, text):
        if "%" not in text and "_" not in text:
            assert like_to_predicate(text)(text)


def _aggregate(name, values, count_star=False, distinct=False):
    """One aggregate over ``values`` scattered into a single group."""
    groups = GroupedAggregation([(name, count_star, distinct)])
    gids = groups.assign([()] * len(values))
    groups.scatter(gids, [None if count_star else list(values)])
    groups.gid(())          # the empty input still has its global group
    return groups.rows()[0][0]


class TestAggregateStates:
    def test_count_star_counts_nulls(self):
        assert _aggregate("COUNT", (1, None, 2), count_star=True) == 3

    def test_count_column_skips_nulls(self):
        assert _aggregate("COUNT", (1, None, 2)) == 2

    def test_distinct_sum(self):
        assert _aggregate("SUM", (5, 5, 3, None), distinct=True) == 8

    def test_avg_empty_is_null(self):
        assert _aggregate("AVG", ()) is None

    def test_min_max(self):
        assert _aggregate("MIN", (4, None, -2, 9)) == -2
        assert _aggregate("MAX", (4, None, -2, 9)) == 9

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ExecutionError):
            GroupedAggregation([("MEDIAN", False, False)])

    @given(st.lists(st.one_of(st.none(), st.integers(-100, 100)),
                    max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_sum_avg_consistency(self, values):
        non_null = [v for v in values if v is not None]
        if non_null:
            assert _aggregate("SUM", values) == sum(non_null)
            assert _aggregate("AVG", values) == pytest.approx(
                sum(non_null) / len(non_null))
        else:
            assert _aggregate("SUM", values) is None
            assert _aggregate("AVG", values) is None
        assert _aggregate("COUNT", values) == len(non_null)
