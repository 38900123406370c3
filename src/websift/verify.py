"""Annealing verification: step planning, mixture schedules, eval reports.

Candidate data is verified by annealing a partially trained base model on a
mixture of 30% candidate and 70% default data. One AnnealSettings record
sizes an anneal: it holds the defaults and refuses a bad value when it is
built, so every function below takes it whole. plan_steps turns a candidate
token count into a step budget using exact rational arithmetic (the token
total is candidate_tokens * n_epoch / candidate_weight, so the candidate
passes through about n_epoch times). compose_mixture lays the two sources
out as a stratified schedule whose candidate share stays near the target in
every part of the run, not just globally, because front-loading the
candidate would bias the annealed model toward whatever it saw last.
build_anneal_plan runs both and records the provenance.

eval_report compares two benchmark score sets with per-metric and per-group
point differences. The Overall average runs over the union metric list, not
over group means, so unevenly sized groups do not skew it. Its EvalReport
is a JsonRecord whose fields are eval_report.json's keys.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import WebsiftError
from .ioutil import JsonRecord, canonical_json, sha256_text

CANONICAL_STEPS = (100, 500, 1000, 2500, 5000)
ROUNDING_MODES = ("as_written_max", "nearest_canonical")
STEP_FLOOR = 5000
N_EPOCH_RANGE = (3, 5)

# Fixed annealing-schedule hyperparameters written into every plan.
WARMUP_FRACTION = 0.1
LR_MAX = 1e-3
LR_MIN = 5e-5
LR_DECAY = "exponential"
# How far below candidate_weight a mixture's achieved candidate fraction may fall.
WEIGHT_TOLERANCE = 0.005


class NonPositiveTokens(WebsiftError):
    def __init__(self, tokens: int):
        super().__init__(f"candidate token count must be positive, got {tokens}")


class InsufficientDefaultTokens(WebsiftError):
    def __init__(self, needed: int, available: int):
        super().__init__(
            f"default corpus holds {available} tokens but the plan needs {needed}"
        )
        self.needed = needed
        self.available = available


class CandidateEpochOverflow(WebsiftError):
    def __init__(self, needed: int, available: int, n_epoch: int):
        super().__init__(
            f"plan needs {needed} candidate tokens but {n_epoch} passes over the "
            f"candidate supply only {available}"
        )
        self.needed = needed
        self.available = available
        self.n_epoch = n_epoch


class MissingMetric(WebsiftError):
    def __init__(self, run_label: str, metrics: Sequence[str]):
        super().__init__(f"run {run_label!r} is missing metrics: {', '.join(metrics)}")
        self.run_label = run_label
        self.metrics = list(metrics)


# ---------------------------------------------------------------------------
# step planning

@dataclass(frozen=True)
class AnnealSettings(JsonRecord):
    """How one verification anneal is sized: passes over the candidate, batch
    shape, step rounding, the candidate's share of the tokens and how many
    strata the schedule is cut into."""

    n_epoch: int = 3
    global_batch_size: int = 512
    sequence_length: int = 4096
    rounding_mode: str = "as_written_max"
    candidate_weight: float = 0.3
    strata: int = 100

    def __post_init__(self):
        lo, hi = N_EPOCH_RANGE
        if not (lo <= self.n_epoch <= hi):
            raise ValueError(f"n_epoch must be within [{lo}, {hi}], got {self.n_epoch}")
        if self.rounding_mode not in ROUNDING_MODES:
            raise ValueError(f"rounding_mode must be one of {ROUNDING_MODES}")
        if self.global_batch_size < 1 or self.sequence_length < 1:
            raise ValueError("global_batch_size and sequence_length must be >= 1")
        # 0 and 1 are exact floats, so this agrees with the exact arithmetic
        # of plan_steps for every finite weight, and it refuses NaN and inf.
        if not (0 < self.candidate_weight < 1):
            raise ValueError("candidate_weight must be in (0, 1)")
        if self.strata < 1:
            raise ValueError(f"strata must be >= 1, got {self.strata}")


@dataclass(frozen=True)
class StepPlan(JsonRecord):
    DERIVED = ("tokens_per_step", "plan_tokens")

    candidate_tokens: int
    n_epoch: int
    global_batch_size: int
    sequence_length: int
    rounding_mode: str
    total_tokens: int       # ceil(candidate_tokens * n_epoch / candidate_weight)
    raw_steps: int
    computed_steps: int

    @property
    def tokens_per_step(self) -> int:
        return self.global_batch_size * self.sequence_length

    @property
    def plan_tokens(self) -> int:
        return self.computed_steps * self.tokens_per_step


def plan_steps(candidate_tokens: int, settings: AnnealSettings) -> StepPlan:
    """Step budget for annealing on a candidate of the given token count.

    Arithmetic is exact: the weight is taken as a decimal fraction and both
    divisions round up, so no float rounding can move a boundary case.
    as_written_max floors the schedule at 5000 steps; nearest_canonical snaps
    to the closest canonical budget, ties toward the larger.
    """
    if candidate_tokens <= 0:
        raise NonPositiveTokens(candidate_tokens)
    s = settings
    weight = Fraction(str(s.candidate_weight))
    total_tokens = math.ceil(Fraction(candidate_tokens * s.n_epoch) / weight)
    raw_steps = math.ceil(Fraction(total_tokens, s.global_batch_size * s.sequence_length))
    if s.rounding_mode == "as_written_max":
        computed = max(raw_steps, STEP_FLOOR)
    else:
        computed = min(CANONICAL_STEPS, key=lambda c: (abs(c - raw_steps), -c))
    return StepPlan(
        candidate_tokens=candidate_tokens,
        n_epoch=s.n_epoch,
        global_batch_size=s.global_batch_size,
        sequence_length=s.sequence_length,
        rounding_mode=s.rounding_mode,
        total_tokens=total_tokens,
        raw_steps=raw_steps,
        computed_steps=computed,
    )


# ---------------------------------------------------------------------------
# token manifests

@dataclass(frozen=True)
class ManifestShard(JsonRecord):
    IGNORE_UNKNOWN = True

    id: str
    tokens: int


@dataclass(frozen=True)
class TokenManifest(JsonRecord):
    IGNORE_UNKNOWN = True   # other tools write these files

    name: str
    shards: tuple[ManifestShard, ...]

    def __post_init__(self):
        if any(s.tokens < 1 for s in self.shards):
            raise ValueError("every manifest shard needs a positive token count")
        ids = [s.id for s in self.shards]
        if len(set(ids)) != len(ids):
            raise ValueError("manifest shard ids must be unique")

    @property
    def total_tokens(self) -> int:
        return sum(s.tokens for s in self.shards)

    def fingerprint(self) -> str:
        return sha256_text(canonical_json(self.to_json_obj()))


# ---------------------------------------------------------------------------
# mixture composition

@dataclass(frozen=True)
class ScheduleSlice:
    source: str       # "candidate" or "default"
    shard_id: str
    pass_index: int   # which pass over the source this slice belongs to
    offset: int       # token offset within the shard
    tokens: int


class _Tape:
    """Sequential token supply over shards, split on demand."""

    def __init__(self, source: str, runs: list[tuple[str, int, int]]):
        # runs: (shard_id, pass_index, tokens)
        self.source = source
        self.runs = runs
        self.i = 0
        self.offset = 0

    def take(self, n: int, out: list[ScheduleSlice]) -> None:
        while n > 0:
            shard_id, pass_index, size = self.runs[self.i]
            available = size - self.offset
            grab = min(n, available)
            out.append(
                ScheduleSlice(
                    source=self.source,
                    shard_id=shard_id,
                    pass_index=pass_index,
                    offset=self.offset,
                    tokens=grab,
                )
            )
            n -= grab
            self.offset += grab
            if self.offset == size:
                self.i += 1
                self.offset = 0


def _partition(total: int, parts: int) -> list[int]:
    """Split total into parts sizes via cumulative rounding; sums exactly."""
    bounds = [round(total * k / parts) for k in range(parts + 1)]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def compose_mixture(
    candidate: TokenManifest,
    default: TokenManifest,
    computed_steps: int,
    settings: AnnealSettings,
    seed: int,
) -> list[ScheduleSlice]:
    """Ordered shard schedule mixing candidate and default data.

    The run is cut into strata; each stratum carries its exact proportional
    share of the candidate budget, so any contiguous window about a stratum
    wide or wider sees close to the global candidate fraction. Candidate
    shards cycle at most n_epoch passes (shuffled per pass), default shards
    are consumed in a single shuffled pass.
    """
    if computed_steps < 1:
        raise ValueError("computed_steps must be >= 1")
    n_epoch, candidate_weight = settings.n_epoch, settings.candidate_weight
    plan_tokens = computed_steps * settings.global_batch_size * settings.sequence_length
    target_budget = round(candidate_weight * plan_tokens)
    available = n_epoch * candidate.total_tokens

    # Step rounding can push the nominal budget a hair past what n_epoch
    # passes supply; clamp and accept as long as the achieved fraction stays
    # inside the weight tolerance. Only a real shortfall is an error.
    candidate_budget = min(target_budget, available)
    if candidate_budget / plan_tokens < candidate_weight - WEIGHT_TOLERANCE:
        raise CandidateEpochOverflow(target_budget, available, n_epoch)
    default_budget = plan_tokens - candidate_budget
    if default_budget > default.total_tokens:
        raise InsufficientDefaultTokens(default_budget, default.total_tokens)

    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x6D69])
    cand_runs: list[tuple[str, int, int]] = []
    for pass_index in range(n_epoch):
        for j in rng.permutation(len(candidate.shards)):
            s = candidate.shards[int(j)]
            cand_runs.append((s.id, pass_index, s.tokens))
    default_runs = [
        (default.shards[int(j)].id, 0, default.shards[int(j)].tokens)
        for j in rng.permutation(len(default.shards))
    ]
    cand_tape = _Tape("candidate", cand_runs)
    default_tape = _Tape("default", default_runs)

    # Keep strata wide enough that per-stratum rounding cannot starve either
    # side; tiny plans just use fewer strata.
    n_strata = min(settings.strata, plan_tokens // 10 or 1)
    sizes = _partition(plan_tokens, n_strata)
    cand_parts = _partition(candidate_budget, n_strata)

    schedule: list[ScheduleSlice] = []
    for size, c_part in zip(sizes, cand_parts):
        d_part = size - c_part
        if d_part < 0:
            raise RuntimeError("stratum smaller than its candidate share")
        if c_part:
            cand_tape.take(c_part, schedule)
        if d_part:
            default_tape.take(d_part, schedule)

    got = sum(s.tokens for s in schedule if s.source == "candidate")
    if got != candidate_budget:
        raise RuntimeError("schedule lost candidate tokens")
    return schedule


# ---------------------------------------------------------------------------
# full plan

@dataclass
class AnnealPlan:
    step_plan: StepPlan
    settings: AnnealSettings
    seed: int
    candidate_manifest: TokenManifest
    default_manifest: TokenManifest
    schedule: list[ScheduleSlice] = field(repr=False)

    def to_json_obj(self) -> dict:
        sp = self.step_plan
        return {
            "hyperparameters": {
                "candidate_weight": self.settings.candidate_weight,
                "default_weight": 1.0 - self.settings.candidate_weight,
                "global_batch_size": sp.global_batch_size,
                "sequence_length": sp.sequence_length,
                "n_epoch": sp.n_epoch,
                "warmup_fraction": WARMUP_FRACTION,
                "lr_max": LR_MAX,
                "lr_min": LR_MIN,
                "lr_decay": LR_DECAY,
            },
            "steps": {
                "candidate_tokens": sp.candidate_tokens,
                "total_tokens": sp.total_tokens,
                "tokens_per_step": sp.tokens_per_step,
                "raw_steps": sp.raw_steps,
                "rounding_mode": sp.rounding_mode,
                "computed_steps": sp.computed_steps,
                "plan_tokens": sp.plan_tokens,
            },
            "provenance": {
                "seed": self.seed,
                "candidate_manifest": self.candidate_manifest.name,
                "candidate_fingerprint": self.candidate_manifest.fingerprint(),
                "candidate_total_tokens": self.candidate_manifest.total_tokens,
                "default_manifest": self.default_manifest.name,
                "default_fingerprint": self.default_manifest.fingerprint(),
                "default_total_tokens": self.default_manifest.total_tokens,
            },
            "schedule": [
                {
                    "source": s.source,
                    "shard": s.shard_id,
                    "pass": s.pass_index,
                    "offset": s.offset,
                    "tokens": s.tokens,
                }
                for s in self.schedule
            ],
        }


def build_anneal_plan(
    candidate: TokenManifest,
    default: TokenManifest,
    settings: AnnealSettings,
    seed: int,
) -> AnnealPlan:
    """The plan for annealing on candidate mixed into default: the step
    budget plan_steps gives for the candidate's token count, the schedule
    compose_mixture lays out for that budget, and both manifests'
    fingerprints. The settings were checked when they were built."""
    step_plan = plan_steps(candidate.total_tokens, settings)
    schedule = compose_mixture(candidate, default, step_plan.computed_steps, settings, seed)
    return AnnealPlan(step_plan, settings, seed, candidate, default, schedule)


# ---------------------------------------------------------------------------
# benchmark reports

ENGLISH_METRICS = (
    "MMLU",
    "ARC-C",
    "ARC-E",
    "CommonSenseQA",
    "HellaSwag",
    "OpenbookQA",
    "PIQA",
    "SIQA",
    "Winogrande",
)
CHINESE_METRICS = ("C-Eval", "CMMLU")
OVERALL = "Overall"


@dataclass(frozen=True)
class MetricGrouping:
    groups: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        seen: set[str] = set()
        for name, metrics in self.groups:
            if name == OVERALL:
                raise ValueError(f"{OVERALL!r} is computed, not declared")
            if not metrics:
                raise ValueError(f"group {name!r} has no metrics")
            for m in metrics:
                if m in seen:
                    raise ValueError(f"metric {m!r} appears in more than one group")
                seen.add(m)
        if not seen:
            raise ValueError("grouping has no metrics")

    @property
    def union(self) -> tuple[str, ...]:
        out: list[str] = []
        for _, metrics in self.groups:
            out.extend(metrics)
        return tuple(out)

    @staticmethod
    def from_json_obj(obj: dict) -> "MetricGrouping":
        """Other tools write these files: an object of group name to an array
        of metric names."""
        if not isinstance(obj, dict):
            raise ValueError("MetricGrouping: expected a JSON object")
        for name, metrics in obj.items():
            if not isinstance(metrics, list) or not all(isinstance(m, str) for m in metrics):
                raise ValueError(f"MetricGrouping: group {name!r} is not an array of strings")
        return MetricGrouping(
            groups=tuple((name, tuple(metrics)) for name, metrics in obj.items())
        )

    @staticmethod
    def from_file(path: str) -> "MetricGrouping":
        with open(path, "r", encoding="utf-8") as f:
            return MetricGrouping.from_json_obj(json.load(f))


DEFAULT_GROUPING = MetricGrouping(
    groups=(("English", ENGLISH_METRICS), ("Chinese", CHINESE_METRICS))
)


@dataclass(frozen=True)
class EvalScores(JsonRecord):
    IGNORE_UNKNOWN = True   # other tools write these files

    run_label: str
    scores: dict[str, float]

    def __post_init__(self):
        for metric, value in self.scores.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"score for {metric!r} is not a number")
            if not (0.0 <= float(value) <= 100.0):
                raise ValueError(f"score for {metric!r} outside [0, 100]: {value}")


@dataclass(frozen=True)
class MetricRow(JsonRecord):
    DERIVED = ("diff",)

    metric: str
    baseline: float
    candidate: float

    @property
    def diff(self) -> float:
        return self.candidate - self.baseline


@dataclass(frozen=True)
class GroupRow(JsonRecord):
    DERIVED = ("diff",)

    group: str
    metrics: tuple[str, ...]
    baseline_avg: float
    candidate_avg: float
    verdict: str

    @property
    def diff(self) -> float:
        return self.candidate_avg - self.baseline_avg


@dataclass(frozen=True)
class EvalReport(JsonRecord):
    DERIVED = ("improved_everywhere",)

    baseline: str                  # the runs' labels
    candidate: str
    margin: float
    metrics: tuple[MetricRow, ...]
    groups: tuple[GroupRow, ...]   # grouping order, Overall last

    @property
    def verdicts(self) -> dict[str, str]:
        return {g.group: g.verdict for g in self.groups}

    @property
    def improved_everywhere(self) -> bool:
        return all(g.verdict == "improved" for g in self.groups)


def _verdict(diff: float, margin: float) -> str:
    if diff > margin:
        return "improved"
    if diff < -margin:
        return "regressed"
    return "neutral"


def eval_report(
    baseline: EvalScores,
    candidate: EvalScores,
    grouping: Optional[MetricGrouping] = None,
    margin: float = 0.1,
) -> EvalReport:
    """Per-metric and per-group comparison in percentage points."""
    if margin < 0:
        raise ValueError("margin must be >= 0")
    grouping = grouping or DEFAULT_GROUPING
    union = grouping.union
    for run in (baseline, candidate):
        missing = [m for m in union if m not in run.scores]
        if missing:
            raise MissingMetric(run.run_label, missing)

    rows = tuple(
        MetricRow(metric=m, baseline=float(baseline.scores[m]), candidate=float(candidate.scores[m]))
        for m in union
    )
    by_metric = {r.metric: r for r in rows}

    def group_row(name: str, metrics: tuple[str, ...]) -> GroupRow:
        b = sum(by_metric[m].baseline for m in metrics) / len(metrics)
        c = sum(by_metric[m].candidate for m in metrics) / len(metrics)
        return GroupRow(
            group=name,
            metrics=metrics,
            baseline_avg=b,
            candidate_avg=c,
            verdict=_verdict(c - b, margin),
        )

    groups = [group_row(name, metrics) for name, metrics in grouping.groups]
    groups.append(group_row(OVERALL, union))
    return EvalReport(
        baseline=baseline.run_label,
        candidate=candidate.run_label,
        margin=margin,
        metrics=rows,
        groups=tuple(groups),
    )


def render_report(report: EvalReport, fmt: str = "table") -> str:
    if fmt == "json":
        return canonical_json(report.to_json_obj()) + "\n"
    header = ["Metric", report.baseline, report.candidate, "Diff"]
    body: list[list[str]] = []
    for r in report.metrics:
        body.append([r.metric, f"{r.baseline:.2f}", f"{r.candidate:.2f}", f"{r.diff:+.2f}"])
    for g in report.groups:
        body.append(
            [
                f"{g.group} avg",
                f"{g.baseline_avg:.3f}",
                f"{g.candidate_avg:.3f}",
                f"{g.diff:+.3f} ({g.verdict})",
            ]
        )
    if fmt == "markdown":
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("|" + "|".join(["---"] * len(header)) + "|")
        for row in body:
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"
    if fmt == "table":
        widths = [max(len(str(x)) for x in col) for col in zip(header, *body)]
        def fmt_row(row: Sequence[str]) -> str:
            return "  ".join(str(x).ljust(w) for x, w in zip(row, widths)).rstrip()
        lines = [fmt_row(header), fmt_row(["-" * w for w in widths])]
        lines.extend(fmt_row(row) for row in body)
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
