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
    "involution_F": "the involution F; sigma and Phi run it inside _delete_step, sigma_inverse inside _insert_step",
    "prune_tree": "deleting the largest label, the step every tree code records",
    "associate": "the associate, on which the violator definition rests",
    "stirling_to_partition": "the Stirling matchings' correspondence with set partitions",
    "decompose_no_upline": "Theorem 8's decomposition; its check runs _decompose",
    "compose_no_upline": "Theorem 8's composition; its check runs _compose",
    "shape_of": "the shape of a tree, over which the w12 weights are summed",
    "tree_stats": "every vertex statistic at once; stats reads its counts off the child table",
    "word_parity_stats": "Corollary 13's word statistic; stats and the checks run _word_parity_stats",
    "enlarge": "the elevator's growing step; enumeration, the codes, tau and Phi run _enlarge",
    "prune_matching": "the elevator's pruning step, enlarge's inverse; the same routes run _prune",
    "class2_reduce": "the class-2 map of the size recurrence; the class-split check runs _class2_reduce",
    "class2_expand": "the inverse class-2 map; the class-split check runs _class2_expand",
    "class3_reduce": "the class-3 map of the size recurrence; the class-split check runs _class3_reduce",
    "class3_expand": "the inverse class-3 map; the class-split check runs _class3_expand",
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


def test_code_letters_appear_only_in_codes_and_cli():
    # every kernel reads and writes trapezoidal words; the letters of the
    # build codes are spelled out only at the public boundary
    letters = {path.name for path in SRC.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Constant) and node.value in ("R", "L", "B", "T")}
    assert letters <= {"codes.py", "cli.py"}


def test_reprs_evaluate_in_the_package_namespace_to_equal_objects():
    t = klazar.tree_from_text("0(1(3,4),2)")
    m = klazar.matching_from_text("1 3/2 10/4 7/5 9/6 8")
    for x in (t, m, klazar.Tree(((),)), klazar.EMPTY_MATCHING):
        assert eval(repr(x), vars(klazar)) == x
    assert repr(t) == "tree_from_text('0(1(3,4),2)')"
    assert repr(m) == "matching_from_text('1 3/2 10/4 7/5 9/6 8')"
