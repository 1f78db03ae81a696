"""Campaign engine: corpus, energy scheduling, fan-out, triage.

A campaign is rounds of deterministic mutant generation (in the parent,
so the mutant stream is identical at any ``--jobs``) fanned out through
the sweep runner for evaluation.  Coverage feedback drives both
seed-corpus growth (a mutant that reached new edges becomes a corpus
entry) and mutation energy (entries that recently produced new coverage
get a larger share of the next round's budget).

Every finding is auto-triaged in the parent: deduped by incident
signature, ddmin-minimized with a kind-matched oracle
(:func:`repro.snapshot.minimize.oracle_for_reason`), and confirmed by
replaying its emitted repro bundle (or re-running the timing oracle for
timing findings).
"""

from __future__ import annotations

import base64
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fuzz.coverage import CoverageMap
from repro.fuzz.mutate import MutationEngine, load_corpus_program
from repro.fuzz.oracle import DEFAULT_LEGS, FuzzOutcome
from repro.guest.program import GuestProgram
from repro.harness.parallel import SweepJob, sweep
from repro.snapshot.serialize import program_from_dict, program_to_dict
from repro.tol.config import TolConfig
from repro.workloads.generator import SyntheticSpec, generate

#: Corpus entries beyond which discoveries stop being added (energy
#: scheduling still favours the productive ones).
_CORPUS_CAP = 64
#: Mutation-energy bounds (mutants per entry per round).
_ENERGY_MIN, _ENERGY_MAX = 1, 8


@dataclass
class FuzzConfig:
    """Campaign parameters (all deterministic inputs)."""

    seed: int = 1
    budget: int = 200              #: candidate executions
    jobs: int = 1
    batch: int = 16                #: candidates per sweep round
    sanitize: bool = True
    timing_every: int = 0          #: 0 = no timing leg; else every Nth
    max_events: int = 100_000
    step_cap: int = 400_000
    repro_dir: Optional[str] = None
    corpus_dir: Optional[str] = None   #: extra seed programs (JSON)
    overrides: Dict[str, object] = field(default_factory=dict)
    #: plant a deterministic fault on one execution:
    #: ``{"exec": N, "site": ..., "ordinal": ..., "salt": ...}``.
    plant: Optional[Dict] = None
    minimize: bool = True
    confirm: bool = True
    minimize_max_events: int = 100_000
    #: ``False`` disables coverage feedback (no corpus growth, no
    #: energy scheduling): the random-mutation baseline the guided
    #: campaign is benchmarked against.
    guided: bool = True
    #: Truncate the seed corpus to its first N entries (None = all).
    #: ``guided=False, corpus_limit=1`` is the classic blackbox
    #: baseline: blind mutation of a single seed.
    corpus_limit: Optional[int] = None


@dataclass
class Finding:
    """One deduplicated, triaged finding."""

    kind: str                      #: divergence|sanitizer|timing|x86_blocks
    signature: str
    leg: str
    exec_index: int
    error: Optional[str] = None
    bundle_path: Optional[str] = None
    duplicates: int = 0
    minimized_instructions: Optional[int] = None
    original_instructions: Optional[int] = None
    minimized_program: Optional[Dict] = None
    confirmed: Optional[bool] = None


@dataclass
class CampaignResult:
    executions: int
    elapsed_s: float
    coverage: Dict[str, int]
    coverage_digest: str
    findings: List[Finding]
    classified: Dict[str, int]
    corpus_size: int

    @property
    def execs_per_sec(self) -> float:
        return self.executions / self.elapsed_s if self.elapsed_s else 0.0

    def signatures(self) -> List[str]:
        return sorted(f.signature for f in self.findings)

    def as_dict(self) -> Dict:
        d = asdict(self)
        d["execs_per_sec"] = self.execs_per_sec
        d["signatures"] = self.signatures()
        return d


@dataclass
class _Entry:
    entry_id: str
    program: GuestProgram
    engine: MutationEngine
    energy: int = _ENERGY_MIN


def seed_corpus(seed: int, corpus_dir: Optional[str] = None
                ) -> List[_Entry]:
    """The initial corpus: small synthetic kernels spanning the
    workload axes (branchy loops, memory traffic, FP, cold stanzas),
    plus any programs checked into ``corpus_dir``."""
    specs = [
        SyntheticSpec(seed=seed * 7 + 1, hot_loops=1, trip_count=300,
                      bb_size=6, mem_ops=1, cold_stanzas=2),
        SyntheticSpec(seed=seed * 7 + 2, hot_loops=2, trip_count=150,
                      bb_size=4, branch_bias=0.6, mem_ops=2,
                      cold_stanzas=3),
        SyntheticSpec(seed=seed * 7 + 3, hot_loops=1, trip_count=200,
                      bb_size=8, fp_ops=1, cold_stanzas=2),
        SyntheticSpec(seed=seed * 7 + 4, hot_loops=3, trip_count=80,
                      bb_size=5, branch_bias=0.85, cold_stanzas=4),
    ]
    entries = [
        _Entry(entry_id=f"seed{i}", program=generate(spec),
               engine=None)  # type: ignore[arg-type]
        for i, spec in enumerate(specs)
    ]
    if corpus_dir and os.path.isdir(corpus_dir):
        for name in sorted(os.listdir(corpus_dir)):
            if not name.endswith(".json"):
                continue
            try:
                program = load_corpus_program(
                    os.path.join(corpus_dir, name))
            except Exception:
                continue
            entries.append(_Entry(entry_id=f"corpus:{name}",
                                  program=program, engine=None))
    for entry in entries:
        entry.engine = MutationEngine(entry.program)
    return entries


def _allocate(entries: List[_Entry], batch: int) -> List[int]:
    """Mutants per entry this round, proportional to energy
    (deterministic largest-remainder; every entry gets >= 0 and the
    total is <= batch, >= min(batch, len(entries)))."""
    total_energy = sum(e.energy for e in entries)
    raw = [batch * e.energy / total_energy for e in entries]
    counts = [int(r) for r in raw]
    remainder = batch - sum(counts)
    order = sorted(range(len(entries)),
                   key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[:remainder]:
        counts[i] += 1
    return counts


def run_campaign(config: FuzzConfig,
                 progress=None) -> CampaignResult:
    """Run a full fuzz campaign; returns the aggregated result.

    ``progress(executed, budget, coverage_edges, findings)`` is invoked
    after each round when given."""
    import random

    started = time.monotonic()
    entries = seed_corpus(config.seed, config.corpus_dir)
    if config.corpus_limit:
        entries = entries[:config.corpus_limit]
    coverage = CoverageMap()
    findings: Dict[str, Finding] = {}
    classified = {"ok": 0, "invalid": 0, "runaway": 0, "finding": 0}
    executed = 0
    rnd = 0

    if config.repro_dir:
        os.makedirs(config.repro_dir, exist_ok=True)

    while executed < config.budget:
        batch = min(config.batch, config.budget - executed)
        counts = _allocate(entries, batch)
        plan: List[Tuple[_Entry, GuestProgram, int]] = []
        for entry, n in zip(list(entries), counts):
            for k in range(n):
                rng = random.Random(
                    f"{config.seed}:{entry.entry_id}:{rnd}:{k}")
                plan.append((entry, entry.engine.mutate(rng),
                             executed + len(plan)))
        if not plan:
            break

        jobs = []
        for entry, mutant, exec_index in plan:
            fault = None
            if (config.plant is not None
                    and exec_index == config.plant.get("exec")):
                fault = {k: v for k, v in config.plant.items()
                         if k != "exec"}
            timing = bool(config.timing_every
                          and exec_index % config.timing_every == 0)
            jobs.append(SweepJob(
                task="fuzz_case",
                params={
                    "program": program_to_dict(mutant),
                    "base_overrides": dict(config.overrides),
                    "fault": fault,
                    "os_stdin_b64":
                        base64.b64encode(b"").decode("ascii"),
                    "os_seed": 0x5EED,
                    "max_events": config.max_events,
                    "step_cap": config.step_cap,
                    "timing": timing,
                    "sanitize": config.sanitize,
                    "repro_dir": config.repro_dir,
                },
                label=f"fuzz:{entry.entry_id}:{exec_index}"))

        results = sweep(jobs, n_jobs=config.jobs, use_cache=False)

        round_new: Dict[str, int] = {}
        for (entry, mutant, exec_index), result in zip(plan, results):
            executed += 1
            if result.error is not None:
                # A worker crash is itself triaged as a finding — the
                # campaign never aborts on one bad mutant.
                outcome = FuzzOutcome(classification="finding",
                                      finding_kind="divergence",
                                      finding_leg="worker",
                                      error=result.error,
                                      signature=f"worker:{result.error[:80]}")
            else:
                outcome = FuzzOutcome(**result.value)
            classified[outcome.classification] = \
                classified.get(outcome.classification, 0) + 1
            new_edges = coverage.add(outcome.edges)
            round_new[entry.entry_id] = \
                round_new.get(entry.entry_id, 0) + new_edges
            if (config.guided and new_edges
                    and len(entries) < _CORPUS_CAP
                    and outcome.classification == "ok"):
                discovered = _Entry(
                    entry_id=f"d{exec_index}", program=mutant,
                    engine=MutationEngine(mutant),
                    energy=min(_ENERGY_MAX, 1 + new_edges))
                entries.append(discovered)
            if outcome.classification == "finding":
                sig = outcome.signature or "unsigned"
                if sig in findings:
                    findings[sig].duplicates += 1
                else:
                    findings[sig] = Finding(
                        kind=outcome.finding_kind or "divergence",
                        signature=sig,
                        leg=outcome.finding_leg or "?",
                        exec_index=exec_index,
                        error=outcome.error,
                        bundle_path=outcome.bundle_path)
                    _triage(findings[sig], mutant, config)

        # Energy update: recent discoverers breed more next round.
        if config.guided:
            for entry in entries:
                new = round_new.get(entry.entry_id, 0)
                if new:
                    entry.energy = min(_ENERGY_MAX, entry.energy + new)
                elif entry.energy > _ENERGY_MIN:
                    entry.energy -= 1
        rnd += 1
        if progress is not None:
            progress(executed, config.budget, len(coverage),
                     len(findings))

    return CampaignResult(
        executions=executed,
        elapsed_s=time.monotonic() - started,
        coverage=coverage.as_dict(),
        coverage_digest=coverage.digest(),
        findings=sorted(findings.values(),
                        key=lambda f: (f.exec_index, f.signature)),
        classified=classified,
        corpus_size=len(entries),
    )


def _leg_config(config: FuzzConfig, leg: str) -> TolConfig:
    overrides = dict(config.overrides)
    for name, leg_overrides in DEFAULT_LEGS:
        if name == leg:
            overrides.update(leg_overrides)
            break
    cfg = TolConfig().with_overrides(overrides)
    if config.sanitize:
        cfg = cfg.with_overrides({"sanitize": True})
    return cfg


def _triage(finding: Finding, mutant: GuestProgram,
            config: FuzzConfig) -> None:
    """Minimize + confirm one fresh finding (best-effort: triage
    failures leave the raw finding intact, they never raise)."""
    from repro.snapshot.minimize import minimize_program, oracle_for_reason

    fault = None
    if config.plant is not None and finding.exec_index == \
            config.plant.get("exec"):
        fault = {k: v for k, v in config.plant.items() if k != "exec"}

    if config.minimize and finding.leg != "worker":
        try:
            oracle = oracle_for_reason(
                f"fuzz_{finding.kind}",
                _leg_config(config, finding.leg), fault=fault,
                max_events=config.minimize_max_events)
            result = minimize_program(mutant, oracle=oracle)
            finding.minimized_instructions = result.instructions
            finding.original_instructions = result.original_instructions
            finding.minimized_program = program_to_dict(result.program)
        except Exception:
            pass

    if config.confirm:
        finding.confirmed = _confirm(finding, mutant, config, fault)


def _confirm(finding: Finding, mutant: GuestProgram,
             config: FuzzConfig, fault) -> Optional[bool]:
    try:
        if finding.bundle_path:
            from repro.snapshot.bundle import load_bundle, replay_bundle
            bundle = load_bundle(finding.bundle_path)
            outcome, _ = replay_bundle(
                bundle, max_events=config.max_events)
            return bool(outcome.diverged)
        # No bundle (e.g. timing finding without repro_dir): re-run the
        # kind-matched oracle on the offending program directly.
        from repro.snapshot.minimize import oracle_for_reason
        oracle = oracle_for_reason(
            f"fuzz_{finding.kind}", _leg_config(config, finding.leg),
            fault=fault, max_events=config.max_events)
        program = (program_from_dict(finding.minimized_program)
                   if finding.minimized_program else mutant)
        return bool(oracle.diverges(program))
    except Exception:
        return None
