"""Engine vs brute-force oracle equivalence.

The oracle recomputes everything from raw declarations; the engine layers
caches and incremental closures on top.  Both must agree on base detection
and on every field of every verdict, for the corpus and for generated
programs with generated rule stacks.
"""

import pytest

from demeterlint.adapt import Adapter, load_config
from demeterlint.demeter import detect
from demeterlint.presets import STACK

from bruteforce import engine_verdicts_as_dicts, naive_detect, oracle_verdicts
from conftest import (
    CONJUNCTION_CONFIG,
    CONJUNCTION_SOURCE,
    OBJECT_STUB,
    build_case_front,
    build_front,
)
from randprog import LARGE_STACK, random_config, random_program


def compare_project(executables, table, config) -> list[str]:
    """Every disagreement between the engine and the oracle, as strings."""
    adapter = Adapter(executables, table, config)
    violations = [
        v for ex in executables for v in detect(ex, adapter.base[ex.id])
    ]
    problems = []

    engine_base = sorted((v.executable_id, v.site.site_id) for v in violations)
    oracle_base = sorted(naive_detect(executables, table))
    if engine_base != oracle_base:
        extra = set(engine_base) - set(oracle_base)
        missing = set(oracle_base) - set(engine_base)
        problems.append(f"base detection: engine extra {extra}, missing {missing}")
        return problems

    engine = engine_verdicts_as_dicts(adapter.classify(violations))
    oracle = oracle_verdicts(executables, table, config)
    for got, want in zip(engine, oracle):
        if got != want:
            problems.append(f"verdict mismatch: engine {got} vs oracle {want}")
    if len(engine) != len(oracle):
        problems.append(f"verdict count: engine {len(engine)} vs oracle {len(oracle)}")
    return problems


class TestCorpusEquivalence:
    def test_full_stack(self, corpus_case):
        table, executables = build_case_front(corpus_case)
        config = load_config([str(p) for p in STACK])
        assert compare_project(executables, table, config) == []

    def test_generic_prefixes(self, corpus_case):
        from demeterlint.presets import GENERIC

        table, executables = build_case_front(corpus_case)
        for cut in (1, 3, len(GENERIC)):
            config = load_config([str(p) for p in GENERIC[:cut]])
            assert compare_project(executables, table, config) == []


class TestRandomEquivalence:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_program_random_config(self, seed):
        table, executables = build_front(random_program(seed))
        config = random_config(seed)
        assert compare_project(executables, table, config) == []

    @pytest.mark.parametrize("seed", range(20))
    def test_random_program_large_rule_stack(self, seed):
        table, executables = build_front(random_program(seed))
        config = random_config(seed, max_rules=LARGE_STACK)
        assert compare_project(executables, table, config) == []

    def test_random_program_preset_stack(self):
        # Preset rules name no rp.* types, so they must all be inert.
        table, executables = build_front(random_program(4242))
        config = load_config([str(p) for p in STACK])
        problems = compare_project(executables, table, config)
        assert problems == []


class TestConjunctionAttribution:
    def test_first_completing_prefix_takes_the_credit(self):
        table, executables = build_front([("A.java", CONJUNCTION_SOURCE)], [OBJECT_STUB])
        config = load_config([CONJUNCTION_CONFIG])
        assert compare_project(executables, table, config) == []
        adapter = Adapter(executables, table, config)
        violations = [v for ex in executables for v in detect(ex, adapter.base[ex.id])]
        (verdict,) = adapter.classify(violations)
        assert verdict.violation.site.member.name == "f"
        # T1, T2 and I1 is the shortest layer-0 prefix that silences .f().
        assert (verdict.outcome, verdict.layer, verdict.rule_id, verdict.also_matched) == (
            "silenced", 0, "I1", ()
        )
