"""Structural properties over generated programs.

Four families, checked per seed: supertype closures are idempotent, layer
prefixes silence monotonically, attribution conserves counts, and the empty
configuration is an identity.  Determinism (byte-identical reports across
fresh runs) is checked on a sample of seeds, and disabling rules on a sample
with large stacks.
"""

import random

import pytest

from demeterlint.adapt import EMPTY_CONFIG, Adapter, LayeredConfig, attribute_waterfall
from demeterlint.demeter import detect
from demeterlint.report import build_report, render

from conftest import build_front
from randprog import LARGE_STACK, random_config, random_program

N_SEEDS = 220


def _analyze(seed: int, max_rules: int = 3):
    table, executables = build_front(random_program(seed))
    config = random_config(seed, max_rules=max_rules)
    adapter = Adapter(executables, table, config)
    violations = [v for ex in executables for v in detect(ex, adapter.base[ex.id])]
    return table, executables, config, adapter, violations


def _truncate(config: LayeredConfig, k: int) -> LayeredConfig:
    return LayeredConfig(
        rules=tuple(r for r in config.rules if r.layer <= k),
        layer_names=tuple(p for p in config.layer_names if p[0] <= k),
    )


def property_failures(seed: int, max_rules: int = 3) -> list[str]:
    """All property violations for one seed; empty means the seed is clean."""
    table, executables, config, adapter, violations = _analyze(seed, max_rules)
    problems = []

    # Closure idempotence: closing a closure changes nothing.
    layers = config.layer_indices
    top = layers[-1] if layers else -1
    for ex in executables:
        closure = adapter.effective(ex.id, top).closure
        if table.supertype_closure(closure) != closure:
            problems.append(f"{ex.id}: closure not idempotent")

    # Prefix monotonicity: deeper prefixes never resurrect a silenced site.
    previous_remaining = None
    for k in layers:
        cut = Adapter(executables, table, _truncate(config, k))
        remaining = {
            v.violation.site.site_id
            for v in cut.classify(violations)
            if v.outcome == "remaining"
        }
        if previous_remaining is not None and not remaining <= previous_remaining:
            problems.append(
                f"layer {k} resurrected {remaining - previous_remaining}"
            )
        previous_remaining = remaining

    # Conservation: silenced-per-rule and remaining partition the total.
    verdicts = adapter.classify(violations)
    waterfall = attribute_waterfall(verdicts, config)
    layer_sum = sum(n for _, n in waterfall.per_layer)
    if layer_sum + waterfall.remaining != len(violations):
        problems.append("waterfall does not partition the violations")
    if sum(e.count for e in waterfall.per_rule) != layer_sum:
        problems.append("per-rule counts disagree with per-layer counts")

    # Empty config: friend sets are the base objects, nothing is silenced.
    empty = Adapter(executables, table, EMPTY_CONFIG)
    for ex in executables:
        if empty.effective(ex.id, 99) is not empty.base[ex.id]:
            problems.append(f"{ex.id}: empty config rebuilt the base set")
    if any(v.outcome != "remaining" for v in empty.classify(violations)):
        problems.append("empty config silenced something")
    return problems


def _render_fresh(seed: int) -> bytes:
    table, executables, config, adapter, violations = _analyze(seed)
    verdicts = adapter.classify(violations)
    name, text = random_program(seed)[0]
    report = build_report(
        executables, verdicts, config, inputs=[("source", name, text)]
    )
    return render(report, "json")


def determinism_failures(seed: int) -> list[str]:
    if _render_fresh(seed) != _render_fresh(seed):
        return [f"seed {seed}: two identical runs differ"]
    return []


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_properties(seed):
    assert property_failures(seed) == []


@pytest.mark.parametrize("seed", range(20))
def test_properties_large_rule_stack(seed):
    assert property_failures(seed, max_rules=LARGE_STACK) == []


@pytest.mark.parametrize("seed", range(20))
def test_disabled_rules_as_if_never_configured(seed):
    # Sets with rules of any layers disabled, as attribution and explain
    # never ask for them, equal the sets of a stack without those rules:
    # the same mask, grants in the same order, the same exemptions.
    table, executables, config, adapter, _ = _analyze(seed, max_rules=LARGE_STACK)
    rng = random.Random(seed)
    ids = [r.rule_id for r in config.rules]
    for _ in range(5):
        disabled = frozenset(rng.sample(ids, rng.randrange(len(ids) + 1)))
        kept = Adapter(executables, table, LayeredConfig(
            rules=tuple(r for r in config.rules if r.rule_id not in disabled),
            layer_names=config.layer_names,
        ))
        for k in config.layer_indices:
            for ex in executables:
                assert adapter.effective(ex.id, k, disabled) == kept.effective(ex.id, k)


@pytest.mark.parametrize("seed", range(0, N_SEEDS, 20))
def test_determinism(seed):
    assert determinism_failures(seed) == []
