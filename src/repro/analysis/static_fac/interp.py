"""Whole-program FAC-predictability analysis over a linked Program.

This module is a *client* of the abstract-interpretation framework in
:mod:`repro.analysis.absint`: the CFG, worklist solver, and known-bits
domain live there; what remains here is the FAC-specific part — walking
the fixpoint states and classifying every load/store with
:mod:`repro.analysis.static_fac.classify`.

Interprocedural strategy (context-insensitive, implemented by the
solver):

* ``jal f`` propagates the caller's state (with ``$ra`` set to the
  return address) into ``f``'s entry block, and propagates a
  *call-summary* state to the return site: callee-saved registers
  (``$sp $gp $fp $s0..$s7``) keep their caller values, everything else
  becomes unknown. This encodes the MIPS O32 convention the compiler
  and runtime adhere to. Historically it was an *assumption* of the
  analysis; it is now discharged by the sanitizer's calling-convention
  checker — pass its facts as ``clobbers`` (as ``repro lint`` does) and
  any register a callee fails to preserve is havocked at the return
  site instead of trusted.
* ``jalr`` / ``jr`` through a non-``$ra`` register have unknown
  targets: a havoc state (only ``$zero`` and ``$gp`` known) is
  propagated to every function entry, and the return site gets the
  same call summary.
* ``jr $ra`` is a return; the call summary already covers its effect.

The executor zeroes ``$zero`` after every instruction and the loader
starts every register at 0 except ``$gp``/``$sp``
(:meth:`repro.cpu.state.ArchState.reset`), so the entry state is fully
known -- imprecision only enters through loads, call clobbering, and
joins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.absint import build_cfg, solve
from repro.analysis.absint import knownbits as kb
from repro.analysis.absint.knownbits_domain import (  # noqa: F401  (compat)
    PRESERVED_ACROSS_CALLS,
    KnownBitsDomain,
    State,
    transfer,
)
from repro.analysis.static_fac.classify import (
    Classification,
    Geometry,
    Verdict,
    classify_const,
    classify_post_increment,
    classify_reg,
)
from repro.fac.config import FacConfig
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OP_INFO
from repro.isa.program import Program


def call_summary(state: State) -> State:
    """Abstract effect of a completed call, assuming the O32 convention
    (kept for backward compatibility; the domain's clobber-aware method
    supersedes it)."""
    return KnownBitsDomain().call_summary(state, None)


@dataclass
class SiteReport:
    """Static verdict for one memory instruction."""

    index: int                     # position in program.instructions
    addr: int                      # absolute text address
    inst: Instruction
    mode: str                      # 'c', 'x', or 'p'
    is_store: bool
    verdict: Verdict
    possible: frozenset[str]       # failure signals that may fire
    certain: frozenset[str]        # failure signals that must fire
    base: kb.KnownBits             # abstract base register at the site
    offset: object                 # int (mode c/p) or KnownBits (mode x)
    function: Optional[str]        # enclosing text symbol, if known


@dataclass
class StaticAnalysis:
    """Result of one static pass: every memory site, classified."""

    program: Program
    config: FacConfig
    sites: list[SiteReport]
    reachable_blocks: int
    total_blocks: int

    def __post_init__(self):
        self.by_addr = {site.addr: site for site in self.sites}

    def counts(self) -> dict[str, int]:
        out = {v.value: 0 for v in Verdict}
        for site in self.sites:
            out[site.verdict.value] += 1
        return out

    def sites_with(self, verdict: Verdict) -> list[SiteReport]:
        return [s for s in self.sites if s.verdict is verdict]


@dataclass
class SoundnessReport:
    """Static verdicts checked against per-PC dynamic failure counts.

    ``always_violations`` / ``never_violations`` list ``(addr, accesses,
    failures)`` for sites whose universal claim was falsified -- both
    must be empty for the analysis to be sound. The rate bounds restate
    the verdicts as a bracket on the measured prediction success rate.
    """

    always_violations: list[tuple[int, int, int]]
    never_violations: list[tuple[int, int, int]]
    unreachable_violations: list[tuple[int, int, int]]
    success_rate_lower: float   # accesses at ALWAYS sites / total
    success_rate_upper: float   # 1 - accesses at NEVER sites / total
    measured_success_rate: float

    @property
    def sound(self) -> bool:
        return (not self.always_violations and not self.never_violations
                and not self.unreachable_violations)

    @property
    def bounds_hold(self) -> bool:
        return (
            self.success_rate_lower - 1e-12
            <= self.measured_success_rate
            <= self.success_rate_upper + 1e-12
        )


def check_soundness(
    analysis: StaticAnalysis, per_pc: dict[int, list[int]]
) -> SoundnessReport:
    """Compare static verdicts with dynamic ``{pc: [accesses, failures]}``
    counts (from ``analyze_program(per_pc=True)`` at the same geometry)."""
    always_bad = []
    never_bad = []
    unreachable_bad = []
    total = sum(acc for acc, _ in per_pc.values())
    failed = sum(fail for _, fail in per_pc.values())
    always_hits = 0
    never_hits = 0
    for pc, (accesses, failures) in per_pc.items():
        site = analysis.by_addr.get(pc)
        if site is None:
            continue
        if site.verdict is Verdict.ALWAYS_PREDICTS:
            always_hits += accesses
            if failures:
                always_bad.append((pc, accesses, failures))
        elif site.verdict is Verdict.NEVER_PREDICTS:
            never_hits += accesses
            if failures != accesses:
                never_bad.append((pc, accesses, failures))
        elif site.verdict is Verdict.UNREACHABLE and accesses:
            unreachable_bad.append((pc, accesses, failures))
    measured = (total - failed) / total if total else 1.0
    lower = always_hits / total if total else 0.0
    upper = 1.0 - (never_hits / total) if total else 1.0
    return SoundnessReport(
        always_violations=always_bad,
        never_violations=never_bad,
        unreachable_violations=unreachable_bad,
        success_rate_lower=lower,
        success_rate_upper=upper,
        measured_success_rate=measured,
    )


# ---------------------------------------------------------------------- #
# classification over the fixpoint

def _classify_all(solution, geom: Geometry) -> list[SiteReport]:
    cfg = solution.cfg
    sites: list[SiteReport] = []

    def visit(i: int, inst: Instruction, state) -> None:
        info = OP_INFO[inst.op]
        if not info.mem_width:
            return
        addr = cfg.addr_of(i)
        if state is None:
            outcome = Classification(
                Verdict.UNREACHABLE, frozenset(), frozenset()
            )
            base: kb.KnownBits = kb.TOP
            offset: object = inst.imm if info.mem_mode != "x" else kb.TOP
        elif info.mem_mode == "c":
            base = state[inst.rs]
            offset = inst.imm
            outcome = classify_const(base, inst.imm, geom)
        elif info.mem_mode == "x":
            base = state[inst.rs]
            offset = state[inst.rx]
            outcome = classify_reg(base, offset, geom)
        else:  # post-increment
            base = state[inst.rs]
            offset = inst.imm
            outcome = classify_post_increment()
        sites.append(SiteReport(
            index=i,
            addr=addr,
            inst=inst,
            mode=info.mem_mode,
            is_store=info.is_store,
            verdict=outcome.verdict,
            possible=outcome.possible,
            certain=outcome.certain,
            base=base,
            offset=offset,
            function=cfg.function_of(addr),
        ))

    solution.walk(visit)
    return sites


def analyze_static(
    program: Program,
    config: FacConfig | None = None,
    *,
    clobbers: Optional[dict[str, frozenset[int]]] = None,
) -> StaticAnalysis:
    """Classify every memory instruction of ``program`` statically.

    ``clobbers`` maps function names to the callee-saved registers they
    fail to preserve (the sanitizer's convention facts); call summaries
    for those functions havoc exactly those registers. Omitted, the O32
    convention is assumed for every callee (the historical behaviour).
    """
    config = config or FacConfig()
    cfg = build_cfg(program)
    solution = solve(cfg, KnownBitsDomain(clobbers))
    sites = _classify_all(solution, Geometry.from_config(config))
    return StaticAnalysis(
        program=program,
        config=config,
        sites=sites,
        reachable_blocks=solution.reachable_blocks,
        total_blocks=cfg.num_blocks,
    )
