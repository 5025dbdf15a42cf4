"""Reverse-axis-removal rewriting (Systems S6–S10 in DESIGN.md).

This package contains the paper's contribution: the location path
equivalences of Section 3 used as rewriting rules, and the ``rare`` algorithm
of Section 4 that removes every reverse axis from an absolute location path.

* :mod:`repro.rewrite.ruleset1` — the general equivalences (1), (2), (2a),
* :mod:`repro.rewrite.ruleset2` — the specific equivalences (3)–(42),
* :mod:`repro.rewrite.rewriter` — the driver applying one rule to the first
  reverse step (Definition 4.1 plus the supporting lemmas),
* :mod:`repro.rewrite.rare` — the stack-based algorithm of Figure 2 with
  tracing,
* :mod:`repro.rewrite.lemmas` — the equivalences of Lemma 3.1/3.2 as data,
  for testing and documentation,
* :mod:`repro.rewrite.errata` — the literal paper form of the four corrected
  rules together with counterexample finders,
* :mod:`repro.rewrite.variables` — the variable-based extension for relative
  paths and RR joins,
* :mod:`repro.rewrite.simplify` — the normalizer the compile path runs on
  every rewritten query (sound rules only: unsatisfiable arms dropped,
  ``self`` steps folded, arms merged).
"""

from repro.rewrite.rare import (
    DEFAULT_MAX_APPLICATIONS,
    RareResult,
    RewriteTrace,
    TraceEntry,
    rare,
    remove_reverse_axes,
    resolve_ruleset,
)
from repro.rewrite.rules import RuleApplication, RuleSetBase
from repro.rewrite.ruleset1 import RuleSet1
from repro.rewrite.ruleset2 import RuleSet2
from repro.rewrite.rewriter import apply_once
from repro.rewrite.simplify import simplify
from repro.rewrite.unionflatten import flatten_unions, union_terms

__all__ = [
    "rare",
    "remove_reverse_axes",
    "RareResult",
    "RewriteTrace",
    "TraceEntry",
    "RuleApplication",
    "RuleSetBase",
    "RuleSet1",
    "RuleSet2",
    "apply_once",
    "simplify",
    "flatten_unions",
    "union_terms",
    "resolve_ruleset",
    "DEFAULT_MAX_APPLICATIONS",
]
