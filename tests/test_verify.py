import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from websift import cli
from websift.verify import (
    AnnealSettings,
    CandidateEpochOverflow,
    EvalScores,
    InsufficientDefaultTokens,
    ManifestShard,
    MetricGrouping,
    MissingMetric,
    NonPositiveTokens,
    TokenManifest,
    build_anneal_plan,
    compose_mixture,
    eval_report,
    plan_steps,
    render_report,
    report_to_json_obj,
)


def manifest(name, *token_counts):
    return TokenManifest(
        name=name,
        shards=tuple(ManifestShard(id=f"{name}-{i}", tokens=t) for i, t in enumerate(token_counts)),
    )


# -- step planning ---------------------------------------------------------------

def test_tokens_per_step_at_production_settings():
    plan = plan_steps(10**9, AnnealSettings())
    assert plan.tokens_per_step == 2_097_152


def test_plan_steps_billion_token_candidate():
    plan = plan_steps(10**9, AnnealSettings())
    assert plan.total_tokens == 10_000_000_000
    assert plan.raw_steps == 4769
    assert plan.computed_steps == 5000  # floored at the minimum schedule


def test_plan_steps_small_candidate_nearest_canonical():
    plan = plan_steps(120_000_000, AnnealSettings(rounding_mode="nearest_canonical"))
    assert plan.total_tokens == 1_200_000_000
    assert plan.raw_steps == 573
    assert plan.computed_steps == 500


def test_plan_steps_canonical_tie_goes_up():
    # raw lands exactly between two canonical budgets
    tiny = AnnealSettings(global_batch_size=1, sequence_length=1, rounding_mode="nearest_canonical")
    assert plan_steps(30, tiny).raw_steps == 300
    assert plan_steps(30, tiny).computed_steps == 500
    assert plan_steps(75, tiny).computed_steps == 1000


def test_plan_steps_rejects_bad_input():
    with pytest.raises(NonPositiveTokens):
        plan_steps(0, AnnealSettings())
    with pytest.raises(NonPositiveTokens):
        plan_steps(-5, AnnealSettings())
    for bad in (
        dict(n_epoch=2),
        dict(n_epoch=6),
        dict(rounding_mode="round_up"),
        dict(global_batch_size=0),
        dict(sequence_length=0),
        dict(candidate_weight=1.0),
        dict(candidate_weight=0),
        dict(candidate_weight=math.nan),
        dict(candidate_weight=math.inf),
    ):
        with pytest.raises(ValueError):
            AnnealSettings(**bad)


@given(
    ct=st.integers(1, 10**7),
    n_epoch=st.integers(3, 5),
    gbs=st.sampled_from([1, 8, 512]),
    seq=st.sampled_from([2, 128, 4096]),
)
def test_plan_steps_matches_rational_arithmetic(ct, n_epoch, gbs, seq):
    plan = plan_steps(ct, AnnealSettings(n_epoch, gbs, seq))
    total = math.ceil(Fraction(ct * n_epoch * 10, 3))  # weight 0.3 = 3/10
    assert plan.total_tokens == total
    assert plan.raw_steps == math.ceil(Fraction(total, gbs * seq))
    assert plan.computed_steps == max(plan.raw_steps, 5000)
    assert plan.plan_tokens == plan.computed_steps * gbs * seq


@given(ct=st.integers(1, 10**7), bump=st.integers(1, 10**6))
def test_plan_steps_monotone_in_candidate_tokens(ct, bump):
    a = plan_steps(ct, AnnealSettings(3, 1, 64))
    b = plan_steps(ct + bump, AnnealSettings(3, 1, 64))
    assert b.computed_steps >= a.computed_steps
    assert plan_steps(ct, AnnealSettings(4, 1, 64)).computed_steps >= a.computed_steps


def test_step_plan_json_obj():
    obj = plan_steps(10**9, AnnealSettings()).to_json_obj()
    assert obj["computed_steps"] == 5000
    assert obj["plan_tokens"] == 5000 * 2_097_152
    assert obj["rounding_mode"] == "as_written_max"


# -- token manifests ----------------------------------------------------------------

def test_manifest_totals_and_round_trip(tmp_path):
    m = manifest("c", 10, 20, 30)
    assert m.total_tokens == 60
    assert TokenManifest.from_json_obj(m.to_json_obj()) == m
    path = tmp_path / "m.json"
    path.write_text(json.dumps(m.to_json_obj()), encoding="utf-8")
    assert TokenManifest.from_file(str(path)) == m


def test_manifest_validation():
    with pytest.raises(ValueError):
        TokenManifest("x", (ManifestShard("a", 5), ManifestShard("a", 6)))
    with pytest.raises(ValueError):
        TokenManifest("x", (ManifestShard("a", 0),))


def test_manifest_fingerprint_tracks_content():
    a = manifest("c", 10, 20)
    b = manifest("c", 10, 20)
    c = manifest("c", 10, 21)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()


# -- mixture composition --------------------------------------------------------------

def candidate_tokens_of(schedule):
    return sum(s.tokens for s in schedule if s.source == "candidate")


def check_tape_contiguity(schedule, candidate, default):
    sizes = {("candidate", s.id): s.tokens for s in candidate.shards}
    sizes.update({("default", s.id): s.tokens for s in default.shards})
    progress = {}
    for sl in schedule:
        assert sl.tokens > 0
        key = (sl.source, sl.shard_id, sl.pass_index)
        assert sl.offset == progress.get(key, 0)
        progress[key] = sl.offset + sl.tokens
        assert progress[key] <= sizes[(sl.source, sl.shard_id)]
    return progress


def candidate_flags(schedule):
    return np.concatenate(
        [np.full(s.tokens, 1 if s.source == "candidate" else 0, dtype=np.int64) for s in schedule]
    )


def max_window_deviation(flags, window, target):
    c = np.concatenate([[0], np.cumsum(flags)])
    sums = c[window:] - c[:-window]
    return float(np.max(np.abs(sums / window - target)))


def test_mixture_exact_divisibility():
    cand = manifest("c", 1)
    default = manifest("d", 20)
    schedule = compose_mixture(cand, default, 10, AnnealSettings(3, 1, 1), 0)
    assert sum(s.tokens for s in schedule) == 10
    assert candidate_tokens_of(schedule) == 3  # exactly 0.3 of the plan
    passes = [s.pass_index for s in schedule if s.source == "candidate"]
    assert passes == [0, 1, 2]  # one shard cycled, never more than n_epoch passes


def test_mixture_holds_fraction_in_every_window():
    cand = manifest("c", *([81] * 25))        # 2025 tokens, 3 passes cover 6075
    default = manifest("d", *([500] * 30))    # 15000 tokens
    schedule = compose_mixture(cand, default, 5000, AnnealSettings(3, 1, 4), 0)
    flags = candidate_flags(schedule)
    assert flags.size == 20000
    got = int(flags.sum())
    assert abs(got / 20000 - 0.3) <= 0.005
    window = 2000  # ten percent of the run
    assert max_window_deviation(flags, window, 0.3) <= 0.02
    progress = check_tape_contiguity(schedule, cand, default)
    assert max(p for (src, _, p) in progress if src == "candidate") <= 2


def test_mixture_uneven_plan_still_windowed():
    cand = manifest("c", 1001, 1001)
    default = manifest("d", 5000, 5000, 5000)
    schedule = compose_mixture(cand, default, 5003, AnnealSettings(3, 1, 4), 0)
    flags = candidate_flags(schedule)
    assert flags.size == 20012
    assert abs(flags.sum() / flags.size - 0.3) <= 0.005
    assert max_window_deviation(flags, flags.size // 10, 0.3) <= 0.02
    check_tape_contiguity(schedule, cand, default)


def test_mixture_candidate_passes_are_ordered():
    cand = manifest("c", 40, 60)
    default = manifest("d", 800)
    schedule = compose_mixture(cand, default, 1000, AnnealSettings(3, 1, 1), 0)
    passes = [s.pass_index for s in schedule if s.source == "candidate"]
    assert passes == sorted(passes)  # a new pass only starts after the previous one ends
    assert all(s.pass_index == 0 for s in schedule if s.source == "default")


def test_mixture_is_seeded():
    cand = manifest("c", *([50] * 10))
    default = manifest("d", *([200] * 10))
    settings = AnnealSettings(3, 1, 1)
    a = compose_mixture(cand, default, 1000, settings, 1)
    b = compose_mixture(cand, default, 1000, settings, 1)
    c = compose_mixture(cand, default, 1000, settings, 2)
    assert a == b
    assert a != c


def test_mixture_clamps_within_weight_tolerance():
    # three full passes supply 5949 of the 6000-token target: 0.29745, accepted
    cand = manifest("c", 661, 661, 661)
    default = manifest("d", *([5000] * 3))
    schedule = compose_mixture(cand, default, 5000, AnnealSettings(3, 1, 4), 0)
    assert candidate_tokens_of(schedule) == 3 * 1983
    progress = check_tape_contiguity(schedule, cand, default)
    for shard in cand.shards:
        for p in range(3):
            assert progress[("candidate", shard.id, p)] == shard.tokens


def test_mixture_candidate_epoch_overflow():
    cand = manifest("c", 10)
    default = manifest("d", 50000)
    with pytest.raises(CandidateEpochOverflow) as err:
        compose_mixture(cand, default, 5000, AnnealSettings(5, 1, 4), 0)
    assert err.value.needed == 6000
    assert err.value.available == 50
    assert err.value.n_epoch == 5


def test_mixture_insufficient_default():
    cand = manifest("c", 2)
    default = manifest("d", 6)
    with pytest.raises(InsufficientDefaultTokens) as err:
        compose_mixture(cand, default, 10, AnnealSettings(3, 1, 1), 0)
    assert err.value.needed == 7
    assert err.value.available == 6


def test_mixture_argument_validation():
    cand, default = manifest("c", 10), manifest("d", 100)
    with pytest.raises(ValueError):
        compose_mixture(cand, default, 0, AnnealSettings(), 0)
    with pytest.raises(ValueError):
        compose_mixture(cand, default, 10, AnnealSettings(n_epoch=2), 0)


# -- full plan ----------------------------------------------------------------------

def test_build_anneal_plan_document():
    cand = manifest("kept", 600, 400)
    default = manifest("base", 5000, 5000)
    plan = build_anneal_plan(cand, default, AnnealSettings(3, 1, 2), 9)
    assert plan.step_plan.total_tokens == 10000
    assert plan.step_plan.computed_steps == 5000
    obj = plan.to_json_obj()
    hp = obj["hyperparameters"]
    assert hp["candidate_weight"] == 0.3
    assert hp["default_weight"] == 0.7
    assert hp["warmup_fraction"] == 0.1
    assert hp["lr_max"] == 1e-3
    assert hp["lr_min"] == 5e-5
    assert hp["lr_decay"] == "exponential"
    steps = obj["steps"]
    assert steps["plan_tokens"] == 10000
    assert steps["tokens_per_step"] == 2
    prov = obj["provenance"]
    assert prov["candidate_fingerprint"] == cand.fingerprint()
    assert prov["default_fingerprint"] == default.fingerprint()
    assert prov["candidate_total_tokens"] == 1000
    assert len(obj["schedule"]) == len(plan.schedule)
    assert sum(s["tokens"] for s in obj["schedule"]) == 10000


# The exact bytes `websift verify plan` prints, pinned so that a refactor of
# the planning code cannot move a step count, a slice or a fingerprint.
PLAN_SHA256 = {
    "steps_as_written_max":
        "8943404a64bdaf964bebb8df277121a5bcd507ac539862fb76be12049da0b46b",
    "steps_nearest_canonical":
        "735cbce43df2a469b3215130bc5d1c5a8b1108d240c8d0331719fd80fb36b148",
    "mixture_defaults":
        "ba0433ddc86e390880eb804e85e4a545991c3275b8da830b2a86fd3b88236ee9",
    "mixture_tiny_one_stratum":
        "0b0cd7fa18f8ad10b2cea6235b0321c56b1b119f852cc0af57c28cd868ea4315",
}


def _plan_sha256(capsys, *argv):
    assert cli.dispatch(["verify", "plan", *argv]) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def _manifest_file(tmp_path, m):
    path = tmp_path / f"{m.name}.json"
    path.write_text(json.dumps(m.to_json_obj()), encoding="utf-8")
    return str(path)


def test_plan_bytes_are_pinned(capsys, tmp_path):
    got = {
        f"steps_{mode}": _plan_sha256(
            capsys, "--candidate-tokens", "123456789", "--rounding-mode", mode
        )
        for mode in ("as_written_max", "nearest_canonical")
    }
    big_cand = _manifest_file(tmp_path, manifest("bc", 400_000_000, 350_000_000, 300_000_000))
    big_default = _manifest_file(tmp_path, manifest("bd", *([10**9] * 8)))
    got["mixture_defaults"] = _plan_sha256(
        capsys, "--candidate-manifest", big_cand, "--default-manifest", big_default,
        "--seed", "5", "--strata", "100",
    )
    cand = _manifest_file(tmp_path, manifest("c", 700, 300, 250))
    default = _manifest_file(tmp_path, manifest("d", *([1000] * 12)))
    got["mixture_tiny_one_stratum"] = _plan_sha256(
        capsys, "--candidate-manifest", cand, "--default-manifest", default,
        "--batch-size", "1", "--seq-len", "2", "--seed", "3", "--strata", "1",
    )
    assert got == PLAN_SHA256


# -- benchmark reports -----------------------------------------------------------------
#
# Three recorded pretraining evaluation runs used as arithmetic fixtures. The
# group averages below are the published three-decimal figures for these runs;
# diffs printed alongside them were taken between rounded averages, so
# comparisons allow one unit in the third decimal.

ENGLISH = ("MMLU", "ARC-C", "ARC-E", "CommonSenseQA", "HellaSwag",
           "OpenbookQA", "PIQA", "SIQA", "Winogrande")
CHINESE = ("C-Eval", "CMMLU")

MIX_BASE = dict(zip(ENGLISH + CHINESE, (
    28.50, 24.15, 55.60, 36.20, 40.28, 21.60, 71.11, 39.76, 55.09,
    33.79, 30.23,
)))
MIX_EDU = dict(zip(ENGLISH + CHINESE, (
    30.95, 32.34, 67.13, 35.79, 40.21, 23.80, 71.22, 39.20, 52.96,
    34.32, 33.18,
)))
MIX_TARGET = dict(zip(ENGLISH + CHINESE, (
    30.94, 33.36, 67.97, 37.18, 39.65, 24.40, 70.08, 40.48, 54.38,
    34.10, 33.35,
)))

EN_ONLY = {
    "base": dict(zip(ENGLISH, (28.84, 25.17, 59.18, 34.32, 42.91, 22.20, 73.29, 38.95, 55.64))),
    "edu": dict(zip(ENGLISH, (31.80, 34.56, 69.95, 31.53, 42.17, 25.20, 72.14, 38.13, 55.56))),
    "target": dict(zip(ENGLISH, (32.24, 35.67, 70.62, 36.45, 42.76, 26.20, 73.67, 39.61, 55.80))),
}

ZH_ONLY = {
    "base": {"C-Eval": 33.95, "CMMLU": 32.41},
    "edu": {"C-Eval": 34.17, "CMMLU": 34.93},
    "target": {"C-Eval": 34.26, "CMMLU": 36.06},
}


def run(label, scores):
    return EvalScores(run_label=label, scores=scores)


def group_avgs(report):
    return {g.group: (g.baseline_avg, g.candidate_avg, g.diff) for g in report.groups}


def test_report_group_arithmetic_full_grouping():
    report = eval_report(run("base", MIX_BASE), run("target", MIX_TARGET))
    avgs = group_avgs(report)
    base_en, target_en, diff_en = avgs["English"]
    assert base_en == pytest.approx(41.366, abs=1e-3)
    assert target_en == pytest.approx(44.271, abs=1e-3)
    assert diff_en == pytest.approx(2.905, abs=1e-3)
    base_zh, target_zh, diff_zh = avgs["Chinese"]
    assert base_zh == pytest.approx(32.010, abs=1e-3)
    assert target_zh == pytest.approx(33.725, abs=1e-3)
    assert diff_zh == pytest.approx(1.715, abs=1e-3)
    base_all, target_all, diff_all = avgs["Overall"]
    assert base_all == pytest.approx(39.665, abs=1e-3)
    assert target_all == pytest.approx(42.354, abs=1e-3)
    assert diff_all == pytest.approx(2.689, abs=1e-3)
    assert report.improved_everywhere


def test_report_overall_is_union_mean_not_mean_of_means():
    report = eval_report(run("base", MIX_BASE), run("target", MIX_TARGET))
    overall = next(g for g in report.groups if g.group == "Overall")
    assert len(overall.metrics) == 11
    mean_of_means = (41.366 + 32.010) / 2
    assert abs(overall.baseline_avg - mean_of_means) > 2.5  # 39.665 vs 36.688
    assert overall.baseline_avg == pytest.approx(sum(MIX_BASE.values()) / 11)


def test_report_near_tie_is_neutral():
    report = eval_report(run("edu", MIX_EDU), run("target", MIX_TARGET))
    avgs = group_avgs(report)
    assert avgs["English"][2] == pytest.approx(0.538, abs=1e-3)
    assert avgs["Chinese"][2] == pytest.approx(-0.025, abs=1e-3)
    assert avgs["Overall"][2] == pytest.approx(0.436, abs=1e-3)
    assert report.verdicts == {
        "English": "improved",
        "Chinese": "neutral",   # 0.025 points sits inside the 0.1 margin
        "Overall": "improved",
    }
    assert not report.improved_everywhere


def test_report_single_group_averages():
    en = MetricGrouping(groups=(("English", ENGLISH),))
    base_report = eval_report(run("base", EN_ONLY["base"]), run("edu", EN_ONLY["edu"]), en)
    avgs = group_avgs(base_report)
    assert avgs["English"][0] == pytest.approx(42.278, abs=1e-3)
    assert avgs["English"][1] == pytest.approx(44.560, abs=1e-3)
    assert avgs["English"][2] == pytest.approx(2.282, abs=1e-3)
    target_report = eval_report(run("base", EN_ONLY["base"]), run("target", EN_ONLY["target"]), en)
    assert group_avgs(target_report)["English"][1] == pytest.approx(45.891, abs=1e-3)
    assert group_avgs(target_report)["English"][2] == pytest.approx(3.613, abs=1e-3)

    zh = MetricGrouping(groups=(("Chinese", CHINESE),))
    zh_report = eval_report(run("base", ZH_ONLY["base"]), run("target", ZH_ONLY["target"]), zh)
    avgs = group_avgs(zh_report)
    assert avgs["Chinese"][0] == pytest.approx(33.18, abs=1e-3)
    assert avgs["Chinese"][1] == pytest.approx(35.16, abs=1e-3)
    assert avgs["Chinese"][2] == pytest.approx(1.98, abs=1e-3)
    edu_report = eval_report(run("base", ZH_ONLY["base"]), run("edu", ZH_ONLY["edu"]), zh)
    assert group_avgs(edu_report)["Chinese"][2] == pytest.approx(1.370, abs=1e-3)


def test_report_identity_run_all_zero():
    report = eval_report(run("a", MIX_BASE), run("a-again", MIX_BASE))
    assert all(r.diff == 0.0 for r in report.rows)
    assert all(g.diff == 0.0 for g in report.groups)
    assert set(report.verdicts.values()) == {"neutral"}


def test_report_margin_boundary():
    # dyadic values so the diff sits exactly on the margin, no float fuzz
    g = MetricGrouping(groups=(("G", ("m",)),))
    at_margin = eval_report(run("a", {"m": 50.0}), run("b", {"m": 50.125}), g, margin=0.125)
    assert at_margin.verdicts["G"] == "neutral"  # strictly-greater rule
    above = eval_report(run("a", {"m": 50.0}), run("b", {"m": 50.25}), g, margin=0.125)
    assert above.verdicts["G"] == "improved"
    below = eval_report(run("a", {"m": 50.0}), run("b", {"m": 49.75}), g, margin=0.125)
    assert below.verdicts["G"] == "regressed"
    with pytest.raises(ValueError):
        eval_report(run("a", {"m": 1.0}), run("b", {"m": 1.0}), g, margin=-0.1)


def test_report_missing_metric_names_it():
    incomplete = dict(MIX_TARGET)
    del incomplete["CMMLU"]
    with pytest.raises(MissingMetric) as err:
        eval_report(run("base", MIX_BASE), run("partial", incomplete))
    assert err.value.run_label == "partial"
    assert err.value.metrics == ["CMMLU"]


def test_eval_scores_validation():
    with pytest.raises(ValueError):
        EvalScores("r", {"m": 101.0})
    with pytest.raises(ValueError):
        EvalScores("r", {"m": -0.1})
    with pytest.raises(ValueError):
        EvalScores("r", {"m": "high"})
    with pytest.raises(ValueError):
        EvalScores("r", {"m": True})
    with pytest.raises(ValueError):
        EvalScores.from_json_obj({"scores": {}})
    with pytest.raises(ValueError):
        EvalScores.from_json_obj({"run_label": "r"})
    ok = EvalScores.from_json_obj({"run_label": "r", "scores": {"m": 50}})
    assert ok.scores == {"m": 50}


def test_metric_grouping_validation():
    with pytest.raises(ValueError):
        MetricGrouping(groups=(("A", ("m",)), ("B", ("m",))))
    with pytest.raises(ValueError):
        MetricGrouping(groups=(("Overall", ("m",)),))
    with pytest.raises(ValueError):
        MetricGrouping(groups=(("A", ()),))
    with pytest.raises(ValueError, match="group 'A' has no metrics"):
        MetricGrouping(groups=(("A", ()), ("B", ("m",))))
    g = MetricGrouping(groups=(("A", ("x", "y")), ("B", ("z",))))
    assert g.union == ("x", "y", "z")


def test_render_report_formats():
    report = eval_report(run("base", MIX_BASE), run("target", MIX_TARGET))
    table = render_report(report, fmt="table")
    assert "Metric" in table and "Overall avg" in table
    assert "+2.905" in table or "+2.906" in table
    md = render_report(report, fmt="markdown")
    assert md.startswith("| Metric |")
    assert "|---|---|---|---|" in md
    as_json = json.loads(render_report(report, fmt="json"))
    assert as_json == report_to_json_obj(report)
    assert as_json["improved_everywhere"] is True
    assert [g["group"] for g in as_json["groups"]] == ["English", "Chinese", "Overall"]
    with pytest.raises(ValueError):
        render_report(report, fmt="html")
