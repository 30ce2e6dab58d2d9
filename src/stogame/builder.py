"""Synthesis of acceptable strategy profiles as small automata.

Each maximal communicating set is classified by two feasibility tests against
its common value v(C) lowered by the accepted loss eps:

* sustainable (type A): some convex combination of in-set recurrent frequency
  points meets the target; the set's machine cycles through the combination's
  atoms, travelling to each atom's class and switching atoms with a small
  per-stage probability so the long-run frequency approaches the combination.
* departing (type B): some distribution over single-deviation exits meets the
  target in expected continuation value; the set's machine cycles through the
  exits, travelling to each exit state and playing the exit profile with a
  tuned probability so the first exit played has exactly the planned law.

Each set's machine is written once, as a fragment: output factors and a
transition table in local (phase, state) labels.  Tuning reads the entry
payoffs off the product chain of the fragment's standalone machine through
`automata.build_product_model`, the evaluator the verifiers use, and the
assembly ships the very fragment that was tuned.  That chain holds only the
set's own nodes: it starts at the fragment's labels and leaves every node
outside the set unexpanded, and its rows equal the set's block of the chain
started at every game state.  (The tests read a departing machine's exit
law and departure values off the same chain, in `tests/oracles.py`.)

The stationary correlated variant is tuned the same way, on the product
chain of `automata.stationary_automaton` over its table, started at the
set's states: a sustainable set's rows by the limit payoffs of the set's
closed block, a departing set's by `automata.first_play_law`, the solve
that also gives the machines' exit law.

The global machine plays a stationary equilibrium selection on transient
states and dispatches into set machines as play enters them; every machine
state is a (mode, game state) pair, so each player's automaton has at most
|S| x |I| states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import json_ready
from .automata import (
    JointAutomaton,
    JointAutomatonProfile,
    build_product_model,
    first_play_law,
    stationary_automaton,
)
from .chains import limit_average_values, recurrent_classes
from .frequencies import SustainPlan, max_slack_mixture, plan_support, sustain_by_columns
# Not called here: perfbench/tracer.py hooks the name in this module, and
# its tests expect every hook to be found.
from .frequencies import enumerate_recurrent_points  # noqa: F401
from .game import StationaryCorrelated, StochasticGame, mixes_to_correlated_row
from .structure import Decomposition, safe_profiles, travel_strategy

EXIT_SCALE_DEFAULT = 0.1
DELTA_FLOOR = 1e-6


# ---------------------------------------------------------------------------
# Exits and companions


def exit_options(game: StochasticGame, region):
    """All (state, profile) pairs that may leave `region` (the complement of
    its safe profiles), and the minimal exit mass among them (None when the
    region is fully closed)."""
    region = sorted(region)
    stay = game.stay_mass(region)
    safe = safe_profiles(game, region)
    exits = [(s, a) for s in region for a in range(game.n_profiles) if a not in safe[s]]
    q_min = float(min(1.0 - stay[s, a] for s, a in exits)) if exits else None
    return exits, q_min


def companion_action(game: StochasticGame, region, s: int, a: int):
    """A single-player switch of `a` that keeps play inside `region`.

    Returns (profile index, switching player) for the lexicographically first
    (player, action) switch, or None when every switch also exits.
    """
    safe = safe_profiles(game, region)[s]
    profile = list(game.profile_of_index(a))
    for i in range(game.n_players):
        original = profile[i]
        for b in range(game.action_counts[i]):
            if b == original:
                continue
            profile[i] = b
            cand = game.profile_index(profile)
            if cand in safe:
                profile[i] = original
                return cand, i
        profile[i] = original
    return None


# ---------------------------------------------------------------------------
# Exit-rate tuning


def solve_eta(beta, scale: float = EXIT_SCALE_DEFAULT) -> np.ndarray:
    """Per-phase exit-play probabilities whose first-played-exit law is beta.

    The cyclic scheme attempts exit l with probability eta_l once per cycle;
    `scale` is the total per-cycle exit-play probability.  Solving
    B_{l-1} eta_l = beta_l * scale with B_l = prod_{m<=l}(1 - eta_m)
    sequentially gives the closed form below.
    """
    beta = np.asarray(beta, dtype=float)
    if beta.ndim != 1 or beta.size == 0:
        raise ValueError("beta must be a nonempty vector")
    if np.any(beta <= 0.0) or abs(beta.sum() - 1.0) > 1e-9:
        raise ValueError("beta must be strictly positive and sum to 1")
    if not 0.0 < scale < 1.0:
        raise ValueError("scale must lie in (0, 1)")
    eta = np.empty_like(beta)
    remaining = 1.0
    for l, b in enumerate(beta):
        eta[l] = b * scale / remaining
        remaining -= b * scale
    return eta


# ---------------------------------------------------------------------------
# Plans


@dataclass
class ExitPlan:
    """Tuned departure plan for one communicating set."""

    exits: list                  # (state, profile index) per atom
    companions: list             # profile index per atom
    deviators: list              # switching player per atom
    beta: np.ndarray
    eta: np.ndarray
    scale: float
    target: np.ndarray
    achieved: np.ndarray         # sum_l beta_l u*(exit_l)
    slack: float

    def to_dict(self) -> dict:
        return json_ready({
            "exits": [[s, a] for s, a in self.exits],
            "companions": self.companions,
            "deviators": self.deviators,
            "beta": self.beta,
            "eta": self.eta,
            "scale": self.scale,
            "target": self.target,
            "achieved": self.achieved,
            "slack": self.slack,
        })


def type_b_feasibility(game: StochasticGame, region, value, eps: float,
                       u_star: np.ndarray, counts: dict | None = None
                       ) -> ExitPlan | None:
    """Departure plan meeting value - eps in expected continuation value, or
    None.  Only exits admitting a companion switch are eligible.  The exit
    mixture is `max_slack_mixture`'s, played at the per-cycle exit scale
    EXIT_SCALE_DEFAULT; when `counts` is given, its "master_lp" entry is
    raised if that solve fell back to the LP."""
    exits, _ = exit_options(game, region)
    admissible = []
    for s, a in exits:
        found = companion_action(game, region, s, a)
        if found is not None:
            admissible.append((s, a, found[0], found[1]))
    if not admissible:
        return None
    target = np.asarray(value, dtype=float) - eps
    payoffs = np.stack([u_star[s, a] for s, a, _, _ in admissible])
    sol = max_slack_mixture(payoffs, target)
    if counts is not None:
        counts["master_lp"] += sol.method != "kernel"
    found = plan_support(sol.row_strategy, payoffs, sol.value)
    if found is None:
        return None
    support, weights, achieved = found
    chosen = [admissible[l] for l in support]
    return ExitPlan(
        exits=[(s, a) for s, a, _, _ in chosen],
        companions=[c for _, _, c, _ in chosen],
        deviators=[d for _, _, _, d in chosen],
        beta=weights,
        eta=solve_eta(weights, EXIT_SCALE_DEFAULT),
        scale=EXIT_SCALE_DEFAULT,
        target=target,
        achieved=achieved,
        slack=sol.value,
    )


@dataclass
class Classification:
    kind: str                    # "A", "B" or "unclassifiable"
    sustain: SustainPlan | None = None
    exit_plan: ExitPlan | None = None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return json_ready({
            "kind": self.kind,
            "sustain": None if self.sustain is None else self.sustain.to_dict(),
            "exit_plan": None if self.exit_plan is None else self.exit_plan.to_dict(),
            "diagnostics": self.diagnostics,
        })


def classify_set(game: StochasticGame, cset, eps: float,
                 u_star: np.ndarray) -> Classification:
    """Classify one communicating set; `u_star` holds the continuation
    values of `oneshot.continuation_values`, which price the exits.

    The sustainable test is accepted outright only when its best mixture
    clears v(C) - eps/2, so that the eps/2 lost to the cycling machine still
    leaves the v(C) - eps guarantee intact.  Otherwise the departure test is
    tried; a sustain plan with thinner slack is kept as a last resort (the
    verifier decides its fate) before declaring the set unclassifiable.
    The diagnostics count the generated columns (`sustain_columns`) and the
    mixture solves of both tests that fell back to an LP (`master_lp`).
    """
    diagnostics = {"master_lp": 0}
    plan_a, columns = sustain_by_columns(game, cset.states, cset.value - eps, diagnostics)
    diagnostics["sustain_columns"] = columns
    if columns:
        diagnostics["sustain_slack"] = None if plan_a is None else plan_a.slack
        if plan_a is not None and np.all(plan_a.achieved >= cset.value - eps / 2.0):
            return Classification("A", sustain=plan_a, diagnostics=diagnostics)
    plan_b = type_b_feasibility(game, cset.states, cset.value, eps, u_star,
                                counts=diagnostics)
    if plan_b is not None:
        diagnostics["exit_slack"] = plan_b.slack
        return Classification("B", exit_plan=plan_b, diagnostics=diagnostics)
    if plan_a is not None:
        diagnostics["note"] = "sustain plan kept with thin slack; departure test infeasible"
        return Classification("A", sustain=plan_a, diagnostics=diagnostics)
    exits, q_min = exit_options(game, cset.states)
    diagnostics.update({
        "exit_count": len(exits),
        "min_exit_mass": q_min,
        "note": "both feasibility tests failed at the requested slack",
    })
    return Classification("unclassifiable", diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Set machine fragments
#
# A fragment is one communicating set's machine in local (phase, state)
# labels: the output factors of every label and a transition table keyed by
# (label, profile, next state).  A table entry whose target is REDISPATCH
# re-enters whatever machine holds the fragment at the next game state's
# initial machine state.  Every edge whose next state lies outside the set
# re-dispatches, as `JointAutomaton.fallback` does, and so does a departing
# set's exit play wherever it lands.  The same fragment backs the
# standalone per-set machine, the per-set analysis read off that machine's
# product chain, and the global assembly.

REDISPATCH = None


def _edge(region, label) -> tuple:
    """The table entry of an edge to `label`, or to REDISPATCH when the
    label's state lies outside `region`."""
    return ((label if label[1] in region else REDISPATCH, 1.0),)


def _pure_factors(game: StochasticGame, a: int):
    profile = game.profile_of_index(a)
    mixes = []
    for i, count in enumerate(game.action_counts):
        m = np.zeros(count)
        m[profile[i]] = 1.0
        mixes.append(m)
    return tuple(mixes)


def _mixed_exit_factors(game: StochasticGame, companion: int, exit_profile: int,
                        deviator: int, eta: float):
    """Factors of (1 - eta) companion + eta exit; they differ only in the
    deviator's coordinate."""
    comp = game.profile_of_index(companion)
    exi = game.profile_of_index(exit_profile)
    mixes = []
    for i, count in enumerate(game.action_counts):
        m = np.zeros(count)
        if i == deviator:
            m[comp[i]] += 1.0 - eta
            m[exi[i]] += eta
        else:
            m[comp[i]] = 1.0
        mixes.append(m)
    return tuple(mixes)


@dataclass
class SetFragment:
    region: tuple
    local_states: list           # (phase, state) pairs, deterministic order
    factors: dict                # (phase, state) -> per-player mixes
    table: dict                  # ((phase, state), a, s_next) -> ((label, prob), ...)

    def place(self, transitions: dict, index: dict, init: dict, key: tuple = ()):
        """Store the table in a machine whose state ids are index[key + label]
        and whose initial states are init; REDISPATCH targets go to
        init[s_next]."""
        for (lab, a, s_next), dist in self.table.items():
            transitions[(index[key + lab], a, s_next)] = tuple(
                (init[s_next] if to is REDISPATCH else index[key + to], p)
                for to, p in dist)


def _travels_to_targets(game, region, target_sets):
    return [travel_strategy(game, region, targets) for targets in target_sets]


def build_type_a_fragment(game: StochasticGame, region, plan: SustainPlan,
                          delta: float) -> SetFragment:
    """Machine fragment of a sustainable set.

    In phase l the machine travels to the atom's class and plays its profile;
    while inside the class it advances the phase with probability
    delta / weight_l per stage (single-atom plans advance never and are
    exact).
    """
    region = tuple(sorted(region))
    L = len(plan.atoms)
    travels = _travels_to_targets(game, region, [p.states for p in plan.atoms])
    factors = {}
    table = {}
    for l, atom in enumerate(plan.atoms):
        advance = 0.0 if L == 1 else delta / float(plan.weights[l])
        for s in region:
            in_class = s in atom.actions
            a = atom.actions[s] if in_class else travels[l].policy[s]
            factors[(l, s)] = _pure_factors(game, a)
            for s_next, _ in game.successors[s][a]:
                if in_class and advance > 0.0 and s_next in region:
                    table[((l, s), a, s_next)] = (
                        ((l, s_next), 1.0 - advance), (((l + 1) % L, s_next), advance))
                else:
                    table[((l, s), a, s_next)] = _edge(region, (l, s_next))
    local = [(l, s) for l in range(L) for s in region]
    return SetFragment(region, local, factors, table)


def build_type_b_fragment(game: StochasticGame, region, plan: ExitPlan) -> SetFragment:
    """Machine fragment of a departing set.

    In phase l the machine travels to the exit state and plays the companion
    profile tilted toward the exit profile with probability eta_l.  Once the
    exit profile is actually played the machine re-dispatches on the realized
    next state (phase 1 if play happens to stay in the set), so the
    first-played-exit law is exactly the planned one from every entry state.
    """
    region = tuple(sorted(region))
    L = len(plan.exits)
    travels = _travels_to_targets(game, region, [{s} for s, _ in plan.exits])
    factors = {}
    table = {}
    for l, (exit_state, exit_profile) in enumerate(plan.exits):
        companion = plan.companions[l]
        for s in region:
            if s != exit_state:
                a = travels[l].policy[s]
                factors[(l, s)] = _pure_factors(game, a)
                for s_next, _ in game.successors[s][a]:
                    table[((l, s), a, s_next)] = _edge(region, (l, s_next))
                continue
            factors[(l, s)] = _mixed_exit_factors(
                game, companion, exit_profile, plan.deviators[l], float(plan.eta[l]))
            # Companion keeps play inside, up to a leak below
            # `structure.CLOSED_TOL`; advance the phase.
            for s_next, _ in game.successors[s][companion]:
                table[((l, s), companion, s_next)] = _edge(region, ((l + 1) % L, s_next))
            # The exit profile ends the block: re-dispatch wherever play
            # lands (inside the set this restarts at phase 1).
            for s_next, _ in game.successors[s][exit_profile]:
                table[((l, s), exit_profile, s_next)] = ((REDISPATCH, 1.0),)
    local = [(l, s) for l in range(L) for s in region]
    return SetFragment(region, local, factors, table)


# ---------------------------------------------------------------------------
# Exact entry payoffs on the standalone machine's product chain


def _set_model(game: StochasticGame, fragment: SetFragment):
    """Product chain of the fragment's standalone machine, started at the
    fragment's labels: node k is label k (the entry labels (0, s) come
    first), and nodes outside the set are left unexpanded."""
    joint = _standalone(game, fragment).joint
    return build_product_model(
        game, joint, [(s, q) for q, (_, s) in enumerate(fragment.local_states)])


def _entry_payoffs(game: StochasticGame, fragment: SetFragment) -> np.ndarray:
    """Long-run payoffs from the entry nodes of a sustainable set's machine,
    whose chain is closed on the fragment's labels."""
    model = _set_model(game, fragment)
    return limit_average_values(model.P, model.r)[:len(fragment.region)]


def sustain_target(value, plan: SustainPlan, eps: float) -> np.ndarray:
    """Payoff floor for a sustainable-set machine: within eps/2 of the plan,
    and above v(C) - eps with a cushion whenever the plan leaves room."""
    target = np.maximum(plan.achieved - eps / 2.0,
                        np.asarray(value, dtype=float) - eps + 1e-4)
    return np.minimum(target, plan.achieved - 1e-4)


def tune_type_a(game: StochasticGame, region, plan: SustainPlan, eps: float, value):
    """Halve delta from weight/2 until every entry payoff clears the sustain
    target: (delta, entry payoffs, the fragment that earned them)."""
    if len(plan.atoms) == 1:
        fragment = build_type_a_fragment(game, region, plan, 0.0)
        return 0.0, _entry_payoffs(game, fragment), fragment
    target = sustain_target(value, plan, eps)
    delta = float(plan.weights.min()) / 2.0
    while True:
        fragment = build_type_a_fragment(game, region, plan, delta)
        payoff = _entry_payoffs(game, fragment)
        if np.all(payoff >= target - 1e-9):
            return delta, payoff, fragment
        delta /= 2.0
        if delta < DELTA_FLOOR:
            raise RuntimeError(
                f"sustainable-set tuning failed on region {list(region)}: "
                f"payoff {payoff.min(axis=0)} below target {target} at the delta floor"
            )


# ---------------------------------------------------------------------------
# Standalone per-set machines and the global assembly


def _finish_machine(game, labels, factors_list, transitions, init, meta,
                    coin_note) -> JointAutomatonProfile:
    outputs = np.stack([mixes_to_correlated_row(f) for f in factors_list])
    joint = JointAutomaton(
        labels=labels,
        outputs=outputs,
        factors=factors_list,
        transitions=transitions,
        init=init,
        coin_note=coin_note,
    )
    return JointAutomatonProfile(joint, meta=meta)


def _standalone(game: StochasticGame, fragment: SetFragment) -> JointAutomatonProfile:
    """Wrap one set fragment into a total machine: every outside state
    starts at one shared "outside" label that plays uniformly (off-set
    behavior is not part of the set's contract)."""
    labels = list(fragment.local_states) + ["outside"]
    index = {lab: k for k, lab in enumerate(labels)}
    init = {s: index[(0, s)] if s in fragment.region else index["outside"]
            for s in range(game.n_states)}
    uniform = tuple(np.full(k, 1.0 / k) for k in game.action_counts)
    factors_list = [fragment.factors.get(lab, uniform) for lab in labels]
    transitions = {}
    fragment.place(transitions, index, init)
    coin = ("phase coins are public and shared; exit tilts are the deviating "
            "player's private action randomization")
    return _finish_machine(game, labels, factors_list, transitions, init, {}, coin)


def assemble_profile(game: StochasticGame, decomposition: Decomposition,
                     classifications, eps: float) -> JointAutomatonProfile:
    """Global machine for the whole game.

    Transient states re-dispatch every stage under the stationary equilibrium
    selection; set machines take over while play stays in their set.
    """
    bad = [k for k, c in enumerate(classifications) if c.kind == "unclassifiable"]
    if bad:
        raise RuntimeError(
            f"cannot assemble: communicating sets {bad} are unclassifiable"
        )
    labels = [("tr", s) for s in decomposition.transient]
    fragments = []
    for k, (cset, cls) in enumerate(zip(decomposition.sets, classifications)):
        if cls.kind == "A":
            delta, payoff, fragment = tune_type_a(game, cset.states, cls.sustain, eps,
                                                  cset.value)
            extra = {"delta": delta, "entry_payoffs": json_ready(payoff)}
        else:
            fragment = build_type_b_fragment(game, cset.states, cls.exit_plan)
            extra = {}
        fragments.append((fragment, extra))
        labels.extend((k, l, s) for l, s in fragment.local_states)
    index = {lab: pos for pos, lab in enumerate(labels)}

    init = {}
    for s in range(game.n_states):
        set_id = decomposition.set_of_state(s)
        init[s] = index[("tr", s)] if set_id is None else index[(set_id, 0, s)]

    factors_list = []
    for lab in labels:
        if lab[0] == "tr":
            factors_list.append(decomposition.transient_profile[lab[1]].mixes)
        else:
            k, l, s = lab
            factors_list.append(fragments[k][0].factors[(l, s)])

    transitions = {}
    for k, (fragment, _) in enumerate(fragments):
        fragment.place(transitions, index, init, key=(k,))
    # Transient machine states carry no stored transitions: every input
    # re-dispatches through the initial-state map (the machine fallback).

    meta = {
        "eps": eps,
        "kinds": [c.kind for c in classifications],
        "regions": [list(c.states) for c in decomposition.sets],
        "transient": list(decomposition.transient),
        "set_meta": [extra for _, extra in fragments],
    }
    coin = ("phase-advance and phase-cycling coins are public and shared by "
            "all players' machines; action mixes are private randomizations")
    return _finish_machine(game, labels, factors_list, transitions, init, meta, coin)


# ---------------------------------------------------------------------------
# Stationary correlated construction


def _safe_profile_rows(game: StochasticGame, region):
    """Uniform mixture over region-preserving profiles, per region state."""
    rows = {}
    for s, safe in safe_profiles(game, region).items():
        row = np.zeros(game.n_profiles)
        row[safe] = 1.0 / len(safe)
        rows[s] = row
    return rows


def _correlated_model(game: StochasticGame, region, rows: dict):
    """Product chain of the stationary machine that plays `rows` on the
    region and the uniform row elsewhere, started at the region's states:
    node k is region[k], and nodes outside the region are left unexpanded."""
    table = np.full((game.n_states, game.n_profiles), 1.0 / game.n_profiles)
    for s, row in rows.items():
        table[s] = row
    return build_product_model(game, stationary_automaton(game, table),
                               [(s, s) for s in region])


def _correlated_type_a_rows(game: StochasticGame, region, plan: SustainPlan,
                            eps: float, value) -> dict:
    """Stationary correlated rows sustaining the plan payoff inside the set.

    The plan's mixed frequency is itself invariant for its conditional kernel;
    when that kernel splits into several recurrent classes, a small per-class
    uniform-travel blend is tuned until the long-run payoff clears the target
    from every entry state.
    """
    region = tuple(sorted(region))
    rho = np.zeros((game.n_states, game.n_profiles))
    for atom, w in zip(plan.atoms, plan.weights):
        rho += w * atom.rho
    marginal = rho.sum(axis=1)
    travel_rows = _safe_profile_rows(game, region)
    support = [s for s in region if marginal[s] > 1e-12]
    base = {}
    fill = None
    for s in region:
        if s in support:
            base[s] = rho[s] / marginal[s]
        else:
            if fill is None:
                fill = travel_strategy(game, region, support)
            row = np.zeros(game.n_profiles)
            row[fill.policy[s]] = 1.0
            base[s] = row
    target = sustain_target(value, plan, eps)

    # The region is closed under every candidate, as under a sustainable
    # set's machine, up to the safe profiles' leaks: judge its block.
    n = len(region)

    def closed_limit(rows):
        model = _correlated_model(game, region, rows)
        return model.P[:n, :n], limit_average_values(model.P[:n, :n], model.r[:n])

    P, payoff = closed_limit(base)
    if np.all(payoff >= target - 1e-9):
        return base

    # The conditional kernel of the mixed frequency splits into several
    # recurrent classes: blend a per-class travel rate and steer the class
    # occupations toward the plan's class masses.
    classes, _ = recurrent_classes(P)
    class_states = [[region[k] for k in cls] for cls in classes]
    goal = np.array([sum(marginal[s] for s in cls) for cls in class_states])
    goal = goal / goal.sum() if goal.sum() > 0 else np.full(len(classes), 1.0 / len(classes))
    kappa = np.ones(len(classes))
    theta = 1e-2
    for _ in range(200):
        rows = dict(base)
        for j, cls in enumerate(class_states):
            blend = min(0.5, theta * kappa[j])
            for s in cls:
                rows[s] = (1.0 - blend) * base[s] + blend * travel_rows[s]
        P, payoff = closed_limit(rows)
        if np.all(payoff >= target - 1e-9):
            return rows
        occ = limit_average_values(P, np.eye(n))
        weights = np.array([occ[:, cls].sum(axis=1).mean() for cls in classes])
        weights = np.clip(weights, 1e-12, None)
        kappa *= np.clip(weights / goal, 0.25, 4.0)
        theta *= 0.8
        if theta < DELTA_FLOOR:
            break
    raise RuntimeError(
        f"stationary-correlated tuning failed on region {list(region)}"
    )


def _correlated_type_b_rows(game: StochasticGame, region, plan: ExitPlan) -> dict:
    """Stationary correlated rows reproducing the planned exit law.

    Non-exit states play the uniform mixture of the plan's travel profiles;
    exit states blend that mixture with the exit profiles.  Iterative scaling
    matches the first-played-exit law to the plan; entry dependence is driven
    out by shrinking the total exit weight.  The scaling stops early once no
    exit weight registers in the law or the weights are pinned at their
    clip, and the best rows seen are kept.
    """
    region = tuple(sorted(region))
    L = len(plan.exits)
    travels = _travels_to_targets(game, region, [{s} for s, _ in plan.exits])
    safe_rows = _safe_profile_rows(game, region)
    z_rows = {}
    for s in region:
        row = np.zeros(game.n_profiles)
        hits = 0
        for trav in travels:
            if s in trav.policy:
                row[trav.policy[s]] += 1.0
                hits += 1
        z_rows[s] = row / hits if hits else safe_rows[s]

    exit_index = {}
    for l, (s, a) in enumerate(plan.exits):
        exit_index.setdefault(s, []).append(l)

    def build_rows(w):
        rows = {s: z_rows[s] for s in region}
        for s, ls in exit_index.items():
            total = sum(w[l] for l in ls)
            row = z_rows[s] * (1.0 - total)
            for l in ls:
                row = row.copy()
                row[plan.exits[l][1]] += w[l]
            rows[s] = row
        return rows

    w = plan.scale * plan.beta
    best_rows = None
    best_err = np.inf
    for _ in range(400):
        rows = build_rows(w)
        model = _correlated_model(game, region, rows)
        marked = {(model.node_of(s), a): l for l, (s, a) in enumerate(plan.exits)}
        B = first_play_law(model, range(len(region)), marked, L)
        err = float(np.max(np.abs(B - plan.beta)))
        if err < best_err:
            best_rows, best_err = rows, err
        if err <= 1e-9:
            return rows
        mean_law = B.mean(axis=0)
        mass = mean_law.sum()
        if not mass > 0.0:
            break
        mean_law /= mass
        mismatch = float(np.max(np.abs(mean_law - plan.beta)))
        if mismatch > err / 4.0:
            step = w * np.clip(plan.beta / np.clip(mean_law, 1e-12, None), 0.5, 2.0)
        else:
            # Law already centered: entry dependence dominates, slow down.
            step = w * 0.5
        step = np.clip(step, 1e-14, 0.9 / L)
        if np.array_equal(step, w):
            break
        w = step
    if best_err <= 1e-7:
        return best_rows
    raise RuntimeError(
        f"exit-law tuning failed on region {list(region)}: residual {best_err:.2e}"
    )


def build_correlated_stationary(game: StochasticGame,
                                decomposition: Decomposition,
                                classifications, eps: float
                                ) -> StationaryCorrelated:
    """Stationary correlated strategy matching the per-set plans: transient
    states keep the equilibrium selection, sustainable sets play their tuned
    occupation rows, departing sets their tuned exit blends."""
    bad = [k for k, c in enumerate(classifications) if c.kind == "unclassifiable"]
    if bad:
        raise RuntimeError(
            f"cannot build stationary correlated strategy: sets {bad} unclassifiable"
        )
    table = np.zeros((game.n_states, game.n_profiles))
    for s in decomposition.transient:
        table[s] = decomposition.transient_profile[s].correlated_row()
    for cset, cls in zip(decomposition.sets, classifications):
        if cls.kind == "A":
            rows = _correlated_type_a_rows(game, cset.states, cls.sustain, eps,
                                           cset.value)
        else:
            rows = _correlated_type_b_rows(game, cset.states, cls.exit_plan)
        for s, row in rows.items():
            table[s] = row
    return StationaryCorrelated(table)
