"""Static termination checking for IPGs (section 5 of the paper).

The algorithm:

1. Build the *nonterminal dependency graph*: one vertex per nonterminal, and
   an edge ``A -> B`` labelled with the symbolic interval ``[e_l, e_r]`` for
   every occurrence ``B[e_l, e_r]`` in the rule of ``A`` (including array
   elements, switch targets and local ``where`` rules).
2. Enumerate all elementary cycles of the graph (Johnson's algorithm,
   :mod:`repro.core.cycles`).
3. For each cycle, ask the solver whether the conjunction

       (e_l0 = 0) ∧ (e_r0 = EOI) ∧ ... ∧ (e_ln = 0) ∧ (e_rn = EOI)

   is satisfiable.  Intervals strictly larger than ``[0, EOI]`` are invalid
   and stop the parser, so a non-decreasing cycle must keep the interval
   exactly ``[0, EOI]``; if the formula is unsatisfiable the intervals shrink
   somewhere around the cycle and the cycle cannot run forever.
4. *Extension* (paper, end of section 5): when an interval endpoint refers to
   ``X.end`` and the rule of ``X`` always consumes at least one terminal, the
   clause ``X.end > 0`` is added; this accepts chunk-list grammars such as
   GIF's ``Blocks -> Block Blocks[Block.end, EOI]``.

Blackbox parsers are assumed to terminate (their checking is delegated to
the programmer), and builtins always terminate.

The paper's Z3 queries are discharged by :mod:`repro.solver`; see DESIGN.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..solver import Constraint, LinearForm, Satisfiability, check_satisfiability, linearize
from ..solver.sat import REL_EQ, REL_GT
from .ast import (
    Alternative,
    Grammar,
    Rule,
    TermArray,
    TermNonterminal,
    TermSwitch,
)
from .cycles import elementary_cycles
from .errors import TerminationCheckError
from .expr import Dot, Expr, Name
from .interpreter import prepare_grammar
from .ir import consuming_nonterminals


# ---------------------------------------------------------------------------
# Dependency graph construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Edge:
    """A labelled edge of the nonterminal dependency graph."""

    source: str
    target: str
    left: Expr
    right: Expr

    def __repr__(self) -> str:
        return f"{self.source} -[{self.left.to_source()}, {self.right.to_source()}]-> {self.target}"


class DependencyGraph:
    """The nonterminal dependency graph with symbolic interval labels."""

    def __init__(self) -> None:
        self.edges: List[Edge] = []
        self.vertices: Set[str] = set()

    def add_vertex(self, name: str) -> None:
        self.vertices.add(name)

    def add_edge(self, edge: Edge) -> None:
        self.edges.append(edge)
        self.vertices.add(edge.source)
        self.vertices.add(edge.target)

    def successors(self) -> Dict[str, List[str]]:
        graph: Dict[str, List[str]] = {vertex: [] for vertex in self.vertices}
        for edge in self.edges:
            graph[edge.source].append(edge.target)
        return graph

    def edges_between(self, source: str, target: str) -> List[Edge]:
        return [e for e in self.edges if e.source == source and e.target == target]


def build_dependency_graph(grammar: Grammar) -> DependencyGraph:
    """Build the nonterminal dependency graph of ``grammar``.

    Local rules appear as vertices qualified by their enclosing rule name
    (``"ELF::Sec"``) so that two unrelated local rules with the same name do
    not get conflated.
    """
    graph = DependencyGraph()

    def resolve(name: str, scope: Dict[str, str]) -> Optional[str]:
        if name in scope:
            return scope[name]
        if grammar.has_rule(name):
            return name
        return None  # builtin or blackbox: assumed terminating, no vertex

    def walk_rule(rule: Rule, vertex: str, scope: Dict[str, str]) -> None:
        graph.add_vertex(vertex)
        for alternative in rule.alternatives:
            inner_scope = dict(scope)
            for local in alternative.local_rules:
                inner_scope[local.name] = f"{vertex}::{local.name}"
            walk_alternative(alternative, vertex, inner_scope)
            for local in alternative.local_rules:
                walk_rule(local, inner_scope[local.name], inner_scope)

    def walk_alternative(alternative: Alternative, vertex: str, scope: Dict[str, str]) -> None:
        for term in alternative.terms:
            if isinstance(term, TermNonterminal):
                _add(term, vertex, scope)
            elif isinstance(term, TermArray):
                _add(term.element, vertex, scope)
            elif isinstance(term, TermSwitch):
                for case in term.cases:
                    _add(case.target, vertex, scope)

    def _add(term: TermNonterminal, vertex: str, scope: Dict[str, str]) -> None:
        target = resolve(term.name, scope)
        if target is None:
            return
        left = term.interval.left
        right = term.interval.right
        assert left is not None and right is not None, "intervals must be completed"
        graph.add_edge(Edge(vertex, target, left, right))

    for rule in grammar.iter_rules():
        walk_rule(rule, rule.name, {})
    return graph


# ---------------------------------------------------------------------------
# Cycle checking
# ---------------------------------------------------------------------------


@dataclass
class CycleVerdict:
    """Result of checking one elementary cycle."""

    cycle: List[str]
    edges: List[Edge]
    satisfiability: Satisfiability
    reason: str = ""

    @property
    def terminates(self) -> bool:
        return self.satisfiability is Satisfiability.UNSAT


@dataclass
class TerminationReport:
    """Full result of termination checking a grammar."""

    grammar_start: str
    cycles: List[CycleVerdict] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(verdict.terminates for verdict in self.cycles)

    @property
    def cycle_count(self) -> int:
        return len(self.cycles)

    def failing_cycles(self) -> List[CycleVerdict]:
        return [verdict for verdict in self.cycles if not verdict.terminates]

    def summary(self) -> str:
        status = "terminates" if self.ok else "MAY NOT TERMINATE"
        return (
            f"termination check: {status}; {self.cycle_count} elementary cycle(s) "
            f"examined in {self.elapsed_seconds * 1000:.2f} ms"
        )


def _edge_constraints(
    edge: Edge, index: int, consuming: Set[str], extra: List[Constraint]
) -> Optional[List[Constraint]]:
    """Constraints for one cycle edge, or ``None`` if outside the linear fragment."""

    def namer(expr: Expr) -> str:
        # EOI is shared along the cycle (the interval is exactly [0, EOI] at
        # every step of a non-decreasing cycle, so all local inputs coincide);
        # all other references are scoped to this edge.
        if isinstance(expr, Name) and expr.ident == "EOI":
            return "EOI"
        return f"edge{index}:{expr.to_source()}"

    left_form = linearize(edge.left, namer)
    right_form = linearize(edge.right, namer)
    if left_form is None or right_form is None:
        return None
    constraints = [
        Constraint(left_form, REL_EQ),
        Constraint(right_form - LinearForm.of_variable("EOI"), REL_EQ),
    ]
    # Extension: X.end > 0 whenever the endpoint references X.end and X's rule
    # always consumes at least one terminal.
    for endpoint in (edge.left, edge.right):
        for node in endpoint.walk():
            if isinstance(node, Dot) and node.attr == "end" and node.nonterminal in consuming:
                variable = f"edge{index}:{node.to_source()}"
                extra.append(Constraint(LinearForm.of_variable(variable), REL_GT))
    return constraints


def check_termination(grammar: Union[Grammar, str]) -> TerminationReport:
    """Run static termination checking and return a :class:`TerminationReport`."""
    grammar = prepare_grammar(grammar)
    started = time.perf_counter()
    graph = build_dependency_graph(grammar)
    consuming = consuming_nonterminals(grammar)
    report = TerminationReport(grammar_start=grammar.start)

    successors = graph.successors()
    for cycle in elementary_cycles(successors):
        verdicts = _check_cycle(graph, cycle, consuming)
        report.cycles.extend(verdicts)
    report.elapsed_seconds = time.perf_counter() - started
    return report


def _check_cycle(
    graph: DependencyGraph, cycle: Sequence[str], consuming: Set[str]
) -> List[CycleVerdict]:
    """Check every combination of parallel edges along one vertex cycle.

    Between two nonterminals there may be several edges with different
    intervals; a vertex cycle terminates only if *every* edge combination
    does, so each combination is checked separately.
    """
    edge_choices: List[List[Edge]] = []
    for position, vertex in enumerate(cycle):
        successor = cycle[(position + 1) % len(cycle)]
        parallel = graph.edges_between(vertex, successor)
        if not parallel:
            return []  # not a real cycle in the labelled graph
        edge_choices.append(parallel)

    verdicts: List[CycleVerdict] = []
    for combination in _product(edge_choices):
        extra: List[Constraint] = []
        constraints: List[Constraint] = []
        linearizable = True
        for index, edge in enumerate(combination):
            edge_constraints = _edge_constraints(edge, index, consuming, extra)
            if edge_constraints is None:
                linearizable = False
                break
            constraints.extend(edge_constraints)
        if not linearizable:
            verdicts.append(
                CycleVerdict(
                    cycle=list(cycle),
                    edges=list(combination),
                    satisfiability=Satisfiability.UNKNOWN,
                    reason="interval expressions outside the linear fragment",
                )
            )
            continue
        outcome = check_satisfiability(constraints + extra)
        reason = (
            "intervals must shrink around the cycle"
            if outcome is Satisfiability.UNSAT
            else "the cycle can keep the interval [0, EOI]"
        )
        verdicts.append(
            CycleVerdict(
                cycle=list(cycle),
                edges=list(combination),
                satisfiability=outcome,
                reason=reason,
            )
        )
    return verdicts


def _product(choices: List[List[Edge]]):
    if not choices:
        return
    indices = [0] * len(choices)
    while True:
        yield [choices[i][indices[i]] for i in range(len(choices))]
        position = len(choices) - 1
        while position >= 0:
            indices[position] += 1
            if indices[position] < len(choices[position]):
                break
            indices[position] = 0
            position -= 1
        if position < 0:
            return


def assert_terminates(grammar: Union[Grammar, str]) -> TerminationReport:
    """Raise :class:`TerminationCheckError` unless the grammar passes checking."""
    report = check_termination(grammar)
    if not report.ok:
        failing = report.failing_cycles()[0]
        cycle_text = " -> ".join(failing.cycle + [failing.cycle[0]])
        raise TerminationCheckError(
            f"grammar may not terminate: cycle {cycle_text} ({failing.reason})",
            cycle=failing.cycle,
        )
    return report
