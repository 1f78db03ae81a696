"""The differential oracle: one candidate, every execution tier.

Each candidate runs through the reference interpretive path first, both
on compiled blocks and instruction by instruction (a disagreement is an
``x86-blocks`` finding; a program that crashes or never exits there is
*invalid*, not interesting), then through a matrix of co-designed legs —
interpretive, fastpath, direct tier, in strict and recover modes, each
validating against the authoritative x86 component, each with the
invariant sanitizer hot — and optionally an annotated-timing leg whose
cycle report must be bit-identical to the per-instruction timing path.

Anything that raises, records a divergence-class incident, disagrees
with the other legs on retirement counts, or breaks the timing
identity is a finding.  A mutant that exhausts the event budget or only
trips the livelock watchdog is classified ``runaway`` and skipped — it
must never hang a worker or abort the campaign.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.guest.emulator import GuestEmulator
from repro.guest.program import GuestProgram
from repro.guest.syscalls import GuestOS
from repro.tol.config import TolConfig

#: Leg matrix: (name, TolConfig overrides).  The interpretive strict leg
#: is the in-stack reference; the others cross every tier with both
#: recovery modes.
DEFAULT_LEGS: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("interp_strict", {"interp_fastpath": False, "host_fastpath": False,
                       "direct_enable": False, "recovery_mode": "strict"}),
    ("fastpath_strict", {"direct_enable": False,
                         "recovery_mode": "strict"}),
    ("direct_strict", {"recovery_mode": "strict"}),
    ("fastpath_recover", {"direct_enable": False,
                          "recovery_mode": "recover"}),
    ("direct_recover", {"recovery_mode": "recover"}),
)

#: Leg name of a reference finding: compiled x86 blocks vs the stepper.
X86_BLOCKS_LEG = "x86-blocks"

#: Incident kinds that constitute a divergence finding.  Deliberately
#: excludes ``rollback_storm`` (speculation failing hard enough to
#: demote is the adaptive pipeline working, not a bug) and
#: ``livelock`` (watchdog-tamed mutants classify as runaway).
_DIVERGENCE_KINDS = frozenset(
    {"state_divergence", "memory_divergence", "sync_lost"})


@dataclass
class FuzzOutcome:
    """Result of one candidate through the whole oracle (picklable)."""

    classification: str            #: ok | invalid | runaway | finding
    edges: List[str] = field(default_factory=list)
    #: divergence | sanitizer | timing | x86_blocks
    finding_kind: Optional[str] = None
    finding_leg: Optional[str] = None
    signature: Optional[str] = None
    error: Optional[str] = None
    bundle_path: Optional[str] = None
    runaway_leg: Optional[str] = None


def reference_fingerprint(emu: GuestEmulator) -> Dict[str, object]:
    """Everything a reference run leaves behind, comparable with ``==``:
    architectural state (floats by bit pattern, since NaN != NaN), every
    page, the dirty set, the four retirement counters and the OS (stdout
    included).  A present all-zero page equals an absent one: on demand-zero
    memory the difference is when a page was first touched, not its data."""
    state = emu.state
    memory = emu.memory
    pages = {}
    for page in sorted(memory.present_pages()):
        data = memory.export_page(page)
        if any(data):
            pages[page] = data
    return {
        "gpr": list(state.gpr),
        "fpr": [struct.pack("<d", value) for value in state.fpr],
        "vr": [list(lanes) for lanes in state.vr],
        "flags": list(state.flags),
        "eip": state.eip,
        "pages": pages,
        "dirty": sorted(memory.dirty),
        "icount": emu.icount,
        "branch_count": emu.branch_count,
        "bb_count": emu.bb_count,
        "class_counts": list(emu.class_counts.items()),
        "os": {name: bytes(value) if isinstance(value, bytearray) else value
               for name, value in vars(emu.os).items()},
    }


def reference_paths(program: GuestProgram, os_stdin: bytes, os_seed: int,
                    step_cap: int) -> Tuple[Optional[int], Optional[str]]:
    """Run the reference both ways: ``run()`` on compiled blocks and a
    plain ``step()`` loop, each for at most ``step_cap`` instructions.

    Returns ``(icount, mismatch)``: the icount when the candidate exits
    cleanly (else None), and a description when the two paths disagree on
    the raised exception or on :func:`reference_fingerprint` (else None)."""
    def run(blocks: bool):
        emu = GuestEmulator(program,
                            os=GuestOS(stdin=os_stdin, rand_seed=os_seed))
        try:
            if blocks:
                emu.run(max_steps=step_cap)
            else:
                while not emu.halted and emu.icount < step_cap:
                    emu.step()
        except Exception as exc:
            return emu, f"{type(exc).__name__}: {exc}"
        return emu, None

    emu, error = run(blocks=True)
    mismatch = None
    # A run() that compiled nothing was the step() loop itself.
    if emu.compiled_blocks:
        step_emu, step_error = run(blocks=False)
        fingerprint = reference_fingerprint(emu)
        step_fingerprint = reference_fingerprint(step_emu)
        if error != step_error:
            mismatch = (f"blocks raised {error!r}, "
                        f"step() raised {step_error!r}")
        elif fingerprint != step_fingerprint:
            fields = sorted(k for k in fingerprint
                            if fingerprint[k] != step_fingerprint[k])
            mismatch = f"blocks and step() differ in {', '.join(fields)}"
    clean = error is None and emu.os.exited
    return (emu.icount if clean else None), mismatch


def _signature_for(kind: str, leg: str, tol, error: Optional[str]) -> str:
    """Dedup signature: the incident log's canonical digest when the
    run recorded incidents, else a hash of the failure head (two
    different mutants hitting the same corrupting step dedup to one
    finding either way)."""
    if tol is not None and len(tol.incidents):
        return tol.incidents.signature()
    head = (error or "").splitlines()[0][:160] if error else ""
    blob = f"{kind}|{leg}|{head}".encode()
    return hashlib.sha256(blob).hexdigest()


def _write_finding_bundle(repro_dir: Optional[str], controller,
                          reason: str, error: Optional[str]
                          ) -> Optional[str]:
    if repro_dir is None or controller is None:
        return None
    from repro.snapshot.bundle import write_bundle
    try:
        bundle_path = write_bundle(repro_dir, controller, reason,
                                   error=error)
        return str(bundle_path)
    except Exception:
        return None  # triage must never kill the worker


def evaluate_candidate(program: GuestProgram,
                       base_overrides: Optional[Dict[str, object]] = None,
                       fault: Optional[Dict] = None,
                       os_stdin: bytes = b"", os_seed: int = 0x5EED,
                       max_events: int = 100_000,
                       step_cap: int = 400_000,
                       legs=DEFAULT_LEGS,
                       timing: bool = False,
                       sanitize: bool = True,
                       repro_dir: Optional[str] = None) -> FuzzOutcome:
    """Run one candidate through the full oracle matrix."""
    from repro.system.controller import Controller
    from repro.tol.sanitize import KIND_SANITIZER, SanitizerError

    ref_icount, mismatch = reference_paths(program, os_stdin, os_seed,
                                           step_cap)
    if mismatch is not None:
        # The compiled-block reference disagrees with the stepper: the
        # x86 component itself is wrong, whatever the co-designed legs do.
        return FuzzOutcome(
            classification="finding", finding_kind="x86_blocks",
            finding_leg=X86_BLOCKS_LEG, error=mismatch,
            signature=_signature_for("x86_blocks", X86_BLOCKS_LEG, None,
                                     mismatch))
    if ref_icount is None:
        return FuzzOutcome(classification="invalid")

    edges: set = set()
    retirements: Dict[str, int] = {}
    controllers: Dict[str, object] = {}

    base = TolConfig().with_overrides(base_overrides or {})
    for leg_name, leg_overrides in legs:
        cfg = base.with_overrides(dict(leg_overrides))
        if sanitize:
            cfg = cfg.with_overrides({"sanitize": True})
        controller = Controller(program, config=cfg,
                                os=GuestOS(stdin=os_stdin,
                                           rand_seed=os_seed))
        tol = controller.codesigned.tol
        if fault is not None:
            from repro.resilience.faults import FaultInjector, FaultSpec
            FaultInjector(FaultSpec(
                site=fault["site"], ordinal=fault["ordinal"],
                salt=fault["salt"])).attach(tol)
        error: Optional[str] = None
        finding_kind: Optional[str] = None
        try:
            result = controller.run(max_events=max_events)
            retirements[leg_name] = result.guest_icount
        except SanitizerError as exc:
            error = f"SanitizerError: {exc}"
            finding_kind = "sanitizer"
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            if "event budget" in str(exc):
                return FuzzOutcome(classification="runaway",
                                   edges=sorted(edges),
                                   runaway_leg=leg_name, error=error)
            finding_kind = "divergence"

        _collect_edges(edges, tol)
        controllers[leg_name] = controller

        if finding_kind is None:
            kinds = set(tol.incidents.kinds())
            if KIND_SANITIZER in kinds:
                finding_kind = "sanitizer"
            elif kinds & _DIVERGENCE_KINDS:
                finding_kind = "divergence"
            elif "livelock" in kinds:
                # Watchdog-tripped: a spinning mutant the ladder already
                # tamed.  Skip, never abort.
                return FuzzOutcome(classification="runaway",
                                   edges=sorted(edges),
                                   runaway_leg=leg_name)
        if finding_kind is not None:
            reason = f"fuzz_{finding_kind}"
            sig = _signature_for(finding_kind, leg_name, tol, error)
            path = _write_finding_bundle(repro_dir, controller, reason,
                                         error)
            return FuzzOutcome(
                classification="finding", edges=sorted(edges),
                finding_kind=finding_kind, finding_leg=leg_name,
                signature=sig, error=error, bundle_path=path)

    # Cross-leg retirement identity: every clean leg must agree.
    counts = sorted(set(retirements.values()))
    if len(counts) > 1:
        worst = max(retirements, key=lambda k: abs(
            retirements[k] - retirements[next(iter(retirements))]))
        controller = controllers[worst]
        tol = controller.codesigned.tol
        tol.incidents.record(
            "state_divergence", retirements[worst],
            detail={"retirements": dict(sorted(retirements.items())),
                    "check": "cross_leg_retirement"},
            suspects=(), actions=("cross-leg retirement mismatch",))
        err = f"cross-leg retirement mismatch: {retirements}"
        sig = _signature_for("divergence", worst, tol, err)
        path = _write_finding_bundle(repro_dir, controller,
                                     "fuzz_divergence", err)
        return FuzzOutcome(
            classification="finding", edges=sorted(edges),
            finding_kind="divergence", finding_leg=worst,
            signature=sig, error=err, bundle_path=path)

    if timing:
        outcome = _timing_leg(program, base, os_stdin, os_seed,
                              sanitize, edges, repro_dir)
        if outcome is not None:
            return outcome

    return FuzzOutcome(classification="ok", edges=sorted(edges))


def _collect_edges(edges: set, tol) -> None:
    from repro.fuzz.coverage import edges_from_counters
    try:
        snap = tol.telemetry.snapshot()
        edges.update(edges_from_counters(snap.counters))
    except Exception:
        pass


def _timing_leg(program, base_cfg, os_stdin, os_seed, sanitize,
                edges: set, repro_dir) -> Optional[FuzzOutcome]:
    """Annotated vs per-instruction timing: reports must be identical."""
    from repro.timing.run import run_with_timing

    cfg = base_cfg.with_overrides(
        {"recovery_mode": "strict", "sanitize": bool(sanitize)})
    reports = {}
    for annotate in (False, True):
        leg = f"timing_annotate_{'on' if annotate else 'off'}"
        try:
            _, controller, core = run_with_timing(
                program, tol_config=cfg,
                os=GuestOS(stdin=os_stdin, rand_seed=os_seed),
                annotate=annotate)
        except Exception as exc:
            err = f"{type(exc).__name__}: {exc}"
            sig = _signature_for("timing", leg, None, err)
            return FuzzOutcome(
                classification="finding", edges=sorted(edges),
                finding_kind="timing", finding_leg=leg,
                signature=sig, error=err)
        _collect_edges(edges, controller.codesigned.tol)
        reports[annotate] = (core.report(), controller)
    if reports[True][0] != reports[False][0]:
        controller = reports[True][1]
        tol = controller.codesigned.tol
        tol.incidents.record(
            "timing_mismatch", tol.guest_icount,
            detail={"check": "annotated_vs_per_instruction"},
            suspects=(), actions=("cycle report mismatch",))
        err = "annotated timing cycle report differs"
        sig = _signature_for("timing", "timing_annotate_on", tol, err)
        path = _write_finding_bundle(repro_dir, controller,
                                     "fuzz_timing", err)
        return FuzzOutcome(
            classification="finding", edges=sorted(edges),
            finding_kind="timing", finding_leg="timing_annotate_on",
            signature=sig, error=err, bundle_path=path)
    return None
