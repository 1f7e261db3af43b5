"""Unit tests for positive diagrams, δ-formulas and the database/query duality."""

import pytest

from repro.datamodel import Database, Null, Valuation
from repro.logic import (
    RelationAtom,
    database_as_query,
    delta_cwa,
    delta_owa,
    domain_closure,
    is_pos_forall_guarded,
    is_ucq,
    positive_diagram,
    tableau_of_query,
)
from repro.logic.formulas import And, Exists, FOQuery, Variable, atom, conj, exists, var
from repro.semantics import cwa_worlds, default_domain, in_cwa, in_owa, owa_worlds
from repro.semantics.registry import SEMANTICS, semantics_named


@pytest.fixture
def paper_diagram_db():
    """R = {(1,2), (2,⊥1), (⊥1,⊥2)} from Section 5.2."""
    b1, b2 = Null("1"), Null("2")
    return Database.from_dict({"R": [(1, 2), (2, b1), (b1, b2)]})


class TestPositiveDiagram:
    def test_atoms_and_variables(self, paper_diagram_db):
        diagram, vars_ = positive_diagram(paper_diagram_db)
        atoms = [f for f in diagram.walk() if isinstance(f, RelationAtom)]
        assert len(atoms) == 3
        assert len(vars_) == 2
        assert {v.name for v in vars_} == {"x_1", "x_2"}

    def test_constants_preserved(self, paper_diagram_db):
        diagram, _ = positive_diagram(paper_diagram_db)
        assert {1, 2} <= diagram.constants()

    def test_same_null_same_variable(self):
        shared = Null("s")
        db = Database.from_dict({"R": [(shared, 1)], "S": [(shared,)]})
        diagram, vars_ = positive_diagram(db)
        assert len(vars_) == 1
        atoms = [f for f in diagram.walk() if isinstance(f, RelationAtom)]
        r_atom = next(a for a in atoms if a.name == "R")
        s_atom = next(a for a in atoms if a.name == "S")
        assert r_atom.terms[0] == s_atom.terms[0]

    def test_complete_database_has_no_variables(self):
        db = Database.from_dict({"R": [(1, 2)]})
        diagram, vars_ = positive_diagram(db)
        assert vars_ == []
        assert diagram.free_variables() == set()


class TestDeltaOwa:
    def test_is_a_ucq(self, paper_diagram_db):
        assert is_ucq(delta_owa(paper_diagram_db))

    def test_models_are_exactly_owa_semantics(self):
        """Mod_C(δ_D^owa) = [[D]]_owa, checked over a pool of candidate worlds."""
        null = Null("x")
        db = Database.from_dict({"R": [(1, null), (null, 2)]})
        formula = delta_owa(db)
        domain = default_domain(db, extra_constants=1)
        candidates = list(owa_worlds(db, domain, max_extra_facts=1))
        candidates.append(Database.from_dict({"R": [(9, 9)]}))
        candidates.append(Database.from_dict({"R": [(1, 5)]}))
        for world in candidates:
            assert formula.holds(world) == in_owa(db, world)

    def test_duality_example_section4(self):
        """R = {(1,⊥),(⊥,2)} viewed as Q_R = ∃x R(1,x) ∧ R(x,2)."""
        db = Database.from_dict({"R": [(1, Null("b")), (Null("b"), 2)]})
        query = database_as_query(db)
        satisfying = Database.from_dict({"R": [(1, 7), (7, 2), (5, 5)]})
        failing = Database.from_dict({"R": [(1, 7), (8, 2)]})
        assert query.formula.holds(satisfying) and in_owa(db, satisfying)
        assert not query.formula.holds(failing) and not in_owa(db, failing)


class TestDeltaCwa:
    def test_is_pos_forall_guarded(self, paper_diagram_db):
        assert is_pos_forall_guarded(delta_cwa(paper_diagram_db))

    def test_models_are_exactly_cwa_semantics(self):
        null = Null("x")
        db = Database.from_dict({"R": [(1, null), (null, 2)]})
        formula = delta_cwa(db)
        domain = default_domain(db, extra_constants=1)
        candidates = list(owa_worlds(db, domain, max_extra_facts=1))
        candidates.append(Database.from_dict({"R": [(9, 9)]}))
        for world in candidates:
            assert formula.holds(world) == in_cwa(db, world)

    def test_valuation_image_is_a_model(self):
        null = Null("x")
        db = Database.from_dict({"R": [(1, null)]})
        world = Valuation({null: 4}).apply(db)
        assert delta_cwa(db).holds(world)
        extended = world.add_facts([("R", (6, 6))])
        assert not delta_cwa(db).holds(extended)
        assert delta_owa(db).holds(extended)

    def test_domain_closure_alone(self):
        db = Database.from_dict({"R": [(1, 2)]})
        closure = domain_closure(db)
        assert closure.holds(db)
        assert not closure.holds(db.add_facts([("R", (3, 3))]))

    def test_registry_rows_hold_their_delta(self):
        db = Database.from_dict({"R": [(1, 2)]})
        for row in SEMANTICS.values():
            assert row.delta(db).holds(db)
        assert SEMANTICS["owa"].delta is delta_owa
        assert SEMANTICS["prob"].delta is delta_cwa
        with pytest.raises(ValueError):
            semantics_named("bogus")


class TestTableau:
    def test_boolean_query_tableau(self):
        x, y = var("x"), var("y")
        query = FOQuery(exists((x, y), conj(atom("R", x, y), atom("R", y, x))))
        schema = Database.from_dict({"R": [(1, 1)]}).schema
        tableau, head = tableau_of_query(query, schema)
        assert tableau.size() == 2
        assert head == ()
        assert len(tableau.nulls()) == 2

    def test_frozen_head(self):
        x, y = var("x"), var("y")
        query = FOQuery(exists(y, atom("R", x, y)), (x,))
        schema = Database.from_dict({"R": [(1, 1)]}).schema
        tableau, head = tableau_of_query(query, schema, freeze_head=True)
        assert head == ("_frozen_x",)
        assert "_frozen_x" in tableau.constants()

    def test_constants_kept(self):
        x = var("x")
        query = FOQuery(exists(x, atom("R", 1, x)))
        schema = Database.from_dict({"R": [(1, 1)]}).schema
        tableau, _ = tableau_of_query(query, schema)
        assert 1 in tableau.constants()

    def test_non_cq_rejected(self):
        from repro.logic import Not

        query = FOQuery(Not(atom("R", 1, 1)))
        schema = Database.from_dict({"R": [(1, 1)]}).schema
        with pytest.raises(ValueError):
            tableau_of_query(query, schema)

    def test_tableau_inverts_diagram(self):
        """tableau(database_as_query(D)) is isomorphic to D (nulls renamed)."""
        null = Null("q")
        db = Database.from_dict({"R": [(1, null), (null, 2)]})
        query = database_as_query(db)
        tableau, _ = tableau_of_query(query, db.schema)
        from repro.homomorphisms import hom_equivalent

        assert hom_equivalent(db, tableau)
        assert tableau.size() == db.size()
