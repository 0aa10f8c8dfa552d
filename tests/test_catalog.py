"""Catalog parsing, validation, and persistence."""

import inspect
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import P, fam
from oracles import form_from_terms, save_catalog
from g2cert.catalog import (
    BUILTIN_DATASETS,
    ENTRY_KEYS,
    AlgebraEntry,
    builtin_text,
    load_any,
    load_builtin,
    load_catalog,
    load_catalog_text,
    parse_catalog_text,
    parse_structure_equations,
)
from g2cert.errors import (
    DslSyntaxError,
    IndexOutOfRange,
    JacobiFailure,
    ValidationFailure,
)
from g2cert.exprs import MAX_EXPONENT, parse_polynomial
from g2cert.lie import unimodular_check
from g2cert.poly import Polynomial


class TestDsl:
    def test_table_row(self):
        L = parse_structure_equations("(-e13, e23, 0, 0, 0, 0)")
        assert L.dim == 6
        assert L.d_basis(1) == form_from_terms(6, 2, {(1, 3): -1})
        assert L.d_basis(3).is_zero()

    def test_abelian(self):
        L = parse_structure_equations("(0, 0, 0, 0, 0, 0)")
        assert all(L.d_basis(k).is_zero() for k in range(1, 7))

    def test_rational_coefficients(self):
        L = parse_structure_equations("(-e24 - 2/3*e15, -e34 + 1/3*e25, 4/3*e35, -e45, 0, 0)")
        assert L.d_basis(3) == form_from_terms(6, 2, {(3, 5): P("4/3")})
        assert L.d_basis(1) == form_from_terms(6, 2, {(2, 4): -1, (1, 5): P("-2/3")})

    def test_family_parameters_get_fam_prefix(self):
        L = parse_structure_equations("(-e16 - e35, -l*e26 - e45, (1+2*l)*e36, (2+l)*e46, (-2-2*l)*e56, 0)")
        assert L.d_basis(2).coefficient((2, 6)) == fam("-l")
        assert L.family_parameters() == frozenset({"fam_l"})

    def test_syntax_error_carries_position(self):
        with pytest.raises(DslSyntaxError) as err:
            parse_structure_equations("(-e13 + , 0, 0)")
        assert err.value.pos > 0

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            parse_structure_equations("(e17, 0, 0, 0, 0, 0)")

    def test_jacobi_failure_rejected(self):
        with pytest.raises(JacobiFailure) as err:
            parse_structure_equations("(e12 + e34, 0, 0, 0)")
        assert not err.value.residual.is_zero()

    def test_wrong_slot_count(self):
        with pytest.raises(DslSyntaxError):
            parse_structure_equations("(0, 0, 0)", dim=6)

    def test_scalar_term_rejected(self):
        with pytest.raises(DslSyntaxError):
            parse_structure_equations("(1 + e12, 0, 0)")

    def test_a_power_of_large_degree_is_refused_before_it_is_expanded(self):
        # expanding (a+b+c+d)^40 once took 0.64 s; a power of a power counts
        # the product of the exponents
        assert parse_polynomial("(a+b+c+d)^16").total_degree() == MAX_EXPONENT == 16
        for text in ("(a+b+c+d)^40", "(a*b)^9", "((a+b)^8)^3", "a^17"):
            with pytest.raises(DslSyntaxError, match=f"a power of degree at most {MAX_EXPONENT}"):
                parse_polynomial(text)

    def test_a_product_of_large_degree_is_refused_before_it_is_expanded(self):
        # 40 factors of a four-term sum once parsed in 0.51 s to 12341
        # terms; a product's degree is the sum of its factors' degrees
        assert parse_polynomial("*".join(["(a+b+c+d)"] * 16)).total_degree() == MAX_EXPONENT
        assert parse_polynomial("2*x^8*y^7/3*z").total_degree() == MAX_EXPONENT
        for text, pos in [
            ("*".join(["(a+b+c+d)"] * 40), 16 * 10 - 1),
            ("x^9*y^8", 3),
            ("(a+b)^8*(a+b)^8*a", 15),
            ("(a*b*c*d*e*f*g*h*i)*(a*b*c*d*e*f*g*h)", 19),
        ]:
            with pytest.raises(DslSyntaxError, match=f"a product of degree at most {MAX_EXPONENT}") as err:
                parse_polynomial(text)
            assert err.value.pos == pos

    def test_a_term_is_one_product_of_its_factors(self, monkeypatch):
        # names, integers and powers of names make one monomial, with no
        # Polynomial.__mul__ per factor
        monkeypatch.setattr(Polynomial, "__mul__", None)
        assert parse_polynomial("-3*alpha_14*alpha_25^2*a/2 + 2*a*a").terms == {
            (("a", 1), ("alpha_14", 1), ("alpha_25", 2)): Fraction(-3, 2),
            (("a", 2),): 2,
        }

    @pytest.mark.parametrize(
        "text, slot",
        [
            ("(0, 1 + e12, 0)", "1 + e12"),
            ("(0, 0, p*e12*e13)", "p*e12*e13"),
            ("(e12, e21 + e13, 0)", "e21 + e13"),
            ("(0, 0, 2*e12^2)", "2*e12^2"),
        ],
    )
    def test_post_parse_error_points_into_its_slot(self, text, slot):
        with pytest.raises(DslSyntaxError) as err:
            parse_structure_equations(text)
        start = text.index(slot)
        assert start <= err.value.pos < start + len(slot)
        assert err.value.text == text


# Structure equations of a two-step nilpotent algebra: de^k = 0 for k <= m and
# de^k a combination of e^i ^ e^j with i < j <= m otherwise, so d^2 = 0 for any
# coefficients and every drawn tuple must parse.
COEFF_VARS = ("fam_p", "fam_q")


@st.composite
def coefficients(draw):
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        exps = [draw(st.integers(0, 2)) for _ in COEFF_VARS]
        mono = tuple((var, exp) for var, exp in zip(COEFF_VARS, exps) if exp)
        terms[mono] = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
    return Polynomial(terms)


@st.composite
def nilpotent_tuples(draw):
    dim = draw(st.integers(3, 7))
    m = draw(st.integers(2, dim - 1))
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    slots = [{} for _ in range(m)]
    for _ in range(dim - m):
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        slots.append({pair: draw(coefficients()) for pair in chosen})
    return dim, slots


def render_slot(terms, flip):
    """DSL text of one slot; `flip` puts the basis symbol first in each term."""
    if not terms:
        return "0"
    parts = []
    for (i, j), coeff in terms.items():
        text = f"({str(coeff).replace('fam_', '')})"
        parts.append(f"e{i}{j}*{text}" if flip else f"{text}*e{i}{j}")
    return " + ".join(parts)


@settings(max_examples=60, deadline=None)
@given(nilpotent_tuples(), st.booleans())
def test_rendered_tuples_round_trip(tuple_and_dim, flip):
    dim, slots = tuple_and_dim
    text = "(" + ", ".join(render_slot(terms, flip) for terms in slots) + ")"
    algebra = parse_structure_equations(text, dim)
    assert list(algebra.differentials) == [form_from_terms(dim, 2, terms) for terms in slots]


class TestBuiltins:
    def test_table1_has_all_rows(self):
        entries = load_builtin("table1")
        # the source table prints 31 rows (see the data notes); every one is
        # shipped and validates
        assert len(entries) == 31
        assert all(not e.stub for e in entries)

    def test_nonsolvable_has_q1_to_q4(self):
        entries = load_builtin("nonsolvable")
        assert [e.name for e in entries] == ["q_1", "q_2^{mu}", "q_3^{mu}", "q_4"]

    def test_every_entry_unimodular_unless_flagged(self):
        for name in BUILTIN_DATASETS:
            for entry in load_builtin(name):
                if entry.stub:
                    continue
                assert unimodular_check(entry.build_algebra()) == entry.expect_unimodular

    def test_load_any_all(self):
        assert len(load_any("all")) == 45

    def test_names_are_unique_across_builtins(self):
        # the CLI looks an exact name up in the merged built-in entries
        names = [e.name for d in BUILTIN_DATASETS for e in parse_catalog_text(builtin_text(d))]
        assert len(names) == 45
        assert len(set(names)) == len(names)

    def test_unknown_builtin(self):
        with pytest.raises(ValidationFailure):
            load_builtin("bogus")


class TestPersistence:
    def test_round_trip_byte_stable(self, tmp_path):
        entries = load_builtin("nonsolvable")
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_catalog(entries, first, name="nonsolvable")
        save_catalog(load_catalog(first), second, name="nonsolvable")
        assert first.read_bytes() == second.read_bytes()

    def test_empty_text_is_empty_catalog(self):
        assert load_catalog_text("") == []

    def test_validation_failure_carries_entry_name(self):
        document = {
            "schema": "g2cert-catalog/1",
            "entries": [
                {
                    "name": "bad",
                    "dim": 2,
                    "structure": "(e12, 0)",
                }
            ],
        }
        # (e12, 0) is non-unimodular, so expect_unimodular defaults to True and fails
        with pytest.raises(ValidationFailure) as err:
            load_catalog_text(json.dumps(document))
        assert err.value.entry_name == "bad"

    def test_parse_step_does_not_validate(self):
        # (e12, 0) is not unimodular: the entry parses, and fails only validation
        node = {"name": "bad", "dim": 2, "structure": "(e12, 0)"}
        text = json.dumps({"schema": "g2cert-catalog/1", "entries": [node]})
        (entry,) = parse_catalog_text(text)
        # parsing builds no algebra, family or gauge family
        assert entry.name == "bad" and entry._built == {}
        with pytest.raises(ValidationFailure):
            entry.validate_entry()
        with pytest.raises(ValidationFailure):
            load_catalog_text(text)

    def test_undeclared_family_parameter_rejected(self):
        document = {
            "schema": "g2cert-catalog/1",
            "entries": [{"name": "undeclared", "dim": 3, "structure": "(p*e13, -p*e23, 0)"}],
        }
        with pytest.raises(ValidationFailure):
            load_catalog_text(json.dumps(document))

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValidationFailure):
            load_catalog_text(json.dumps({"schema": "other/9", "entries": []}))

    def test_the_keys_of_an_entry_are_the_constructor_keywords(self):
        assert set(ENTRY_KEYS) == set(inspect.signature(AlgebraEntry).parameters)


def builtin_node(dataset, prefix):
    """The JSON node of the built-in entry of `dataset` whose name starts
    with `prefix`."""
    document = json.loads(builtin_text(dataset))
    return next(e for e in document["entries"] if e["name"].startswith(prefix))


def catalog_of(*nodes) -> str:
    return json.dumps({"schema": "g2cert-catalog/1", "entries": list(nodes)})


class TestNilradicalField:
    def test_a_dimension_6_entry_with_a_plan_needs_a_nilradical(self):
        # g_{5,30} without its nilradical once validated, and run-all then
        # ended in a TypeError traceback at its SU(3) stage
        node = builtin_node("table1", "g_{5,30}")
        del node["nilradical"]
        with pytest.raises(ValidationFailure, match="needs a nilradical"):
            load_catalog_text(catalog_of(node))
        node["plan"] = []
        (entry,) = load_catalog_text(catalog_of(node))
        assert entry.nilradical is None

    @pytest.mark.parametrize("value", [True, 1, "12345", [1, 2, True], [1.0, 2, 3, 4, 5]])
    def test_a_nilradical_that_is_not_a_list_of_ints_is_refused(self, value):
        # a JSON true once passed as the index 1
        node = builtin_node("table1", "g_{5,30}")
        node["nilradical"] = value
        with pytest.raises(ValidationFailure, match="nilradical needs a list of ints"):
            load_catalog_text(catalog_of(node))


def test_conformance_corpus():
    """Grammar conformance: valid inputs parse, invalid inputs raise."""
    valid = [
        "(0, 0, 0)",
        "(-e12, 0, 0)",
        "(2*e12 - 1/2*e13, 0, 0)",
        "(-p*e12 + (1 + 2*p)*e13, 0, 0)",
        "((p^2)*e12, 0, 0)",
        "( -e13 ,  e23 , 0 , 0 , 0 , 0 )",
        "(p^2*e12, 0, 0)",                # newly accepted: power of a bare name
        "(2*(e12 - e13), 0, 0)",          # newly accepted: grouped basis terms
    ]
    for text in valid:
        parse_structure_equations(text)
    invalid = [
        "-e13, e23, 0",          # no parentheses
        "(e13 e23, 0, 0)",       # missing operator
        "(e1, 0, 0)",            # not a 2-form symbol
        "(e12*e13, 0, 0)",       # two basis factors in one term
        "(e12/p, 0, 0)",         # division by a parameter
        "(e21, 0, 0)",           # decreasing indices
        "(e12^2, 0, 0)",         # a basis factor squared
        "(e12*e12, 0, 0)",       # the same basis factor twice
        "(0, 0, 0",              # unclosed tuple
        "(0, 0, 0) x",           # text after the tuple
    ]
    for text in invalid:
        with pytest.raises((DslSyntaxError, IndexOutOfRange)):
            parse_structure_equations(text)
