"""A guard against dead code: every function the package exports is used;
and the reprs name exported functions."""

import ast
import inspect
from collections import Counter
from pathlib import Path

import klazar

SRC = Path(__file__).resolve().parent.parent / "src" / "klazar"

# The paper's constructions that no package code calls.  Each stays
# public because the tests check it against the paper's definition.
KEPT_FOR_THE_TESTS = {
    "H_map": "the map H of Phi's complier case; Phi_recursive runs its kernel _H",
    "pi_leaf_map": "the leaf map pi of the bad-vertex count",
    "pi_inverse": "the inverse of pi, onto the reverse-bad vertices",
    "shift_S": "the shift map S of tau_inverse, which runs its kernel _shift",
    "involution_F": "the involution F; sigma and Phi run apply_F_tables",
    "prune_tree": "deleting the largest label, the step every tree code records",
    "associate": "the associate, on which the violator definition rests",
    "stirling_to_partition": "the Stirling matchings' correspondence with set partitions",
    "decompose_no_upline": "Theorem 8's decomposition; its check runs _decompose",
    "compose_no_upline": "Theorem 8's composition; its check runs _compose",
    "shape_of": "the shape of a tree, over which the w12 weights are summed",
}


class _References(ast.NodeVisitor):
    """Counts the names and attributes a module reads, leaving out those
    read inside a def of the same name (recursion is not a use)."""

    def __init__(self):
        self.counts, self.defs = Counter(), []

    def visit_FunctionDef(self, node):
        self.defs.append(node.name)
        self.generic_visit(node)
        self.defs.pop()

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self.defs:
            self.counts[node.id] += 1

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load) and node.attr not in self.defs:
            self.counts[node.attr] += 1
        self.generic_visit(node)


def test_every_exported_function_is_named_outside_its_def():
    refs = _References()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":  # the export list itself
            refs.visit(ast.parse(path.read_text()))
    unused = {name for name in klazar.__all__
              if callable(getattr(klazar, name)) and not inspect.isclass(getattr(klazar, name))
              and not refs.counts[name]}
    assert unused == set(KEPT_FOR_THE_TESTS)


def test_reprs_evaluate_in_the_package_namespace_to_equal_objects():
    t = klazar.tree_from_text("0(1(3,4),2)")
    m = klazar.matching_from_text("1 3/2 10/4 7/5 9/6 8")
    for x in (t, m, klazar.Tree(((),)), klazar.EMPTY_MATCHING):
        assert eval(repr(x), vars(klazar)) == x
    assert repr(t) == "tree_from_text('0(1(3,4),2)')"
    assert repr(m) == "matching_from_text('1 3/2 10/4 7/5 9/6 8')"
