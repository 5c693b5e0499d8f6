"""Streaming survey analysis: exact agreement with the batch pipeline.

A complete store streamed through :class:`StreamingSurvey` must reproduce the
batch eligibility summary and Figure 5 CDF of the fully materialized
``CampaignResult`` — including the floating-point per-path means, since
per-host record order is preserved within a shard.
"""

from __future__ import annotations

import pytest

from repro.analysis.figures import build_fig5_cdf
from repro.analysis.streaming import StreamingSurvey, stream_survey, survey_from_store
from repro.analysis.survey import summarize_eligibility
from repro.api import CampaignRequest, Session
from repro.core.campaign import CampaignConfig
from repro.core.prober import TestName
from repro.core.runner import EXECUTOR_SERIAL
from repro.core.sample import Direction
from repro.store import CampaignStore

CONFIG = CampaignConfig(
    rounds=2,
    samples_per_measurement=4,
    inter_measurement_gap=0.2,
    inter_round_gap=1.0,
)


def _run(request: CampaignRequest):
    with Session(backend=EXECUTOR_SERIAL) as session:
        return session.run(request)


@pytest.fixture(scope="module")
def stored_run(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("stream") / "campaign"
    envelope = _run(
        CampaignRequest(
            scenario="bursty-loss",
            config=CONFIG,
            hosts=5,
            seed=20020101,
            shards=2,
            store=store_dir,
        )
    )
    return envelope.result, CampaignStore.open(store_dir)


def test_streaming_eligibility_equals_batch(stored_run):
    result, store = stored_run
    streamed = survey_from_store(store).eligibility()
    batch = summarize_eligibility(result)
    assert streamed.total_hosts == batch.total_hosts
    assert streamed.ineligible == batch.ineligible
    assert streamed.measurements_total == batch.measurements_total
    assert streamed.measurements_with_reordering == batch.measurements_with_reordering
    assert streamed.to_table() == batch.to_table()


@pytest.mark.parametrize("direction", [Direction.FORWARD, Direction.REVERSE])
@pytest.mark.parametrize("test", list(TestName.all()))
def test_streaming_fig5_equals_batch(stored_run, test, direction):
    result, store = stored_run
    survey = survey_from_store(store)
    batch = build_fig5_cdf(result, test=test, direction=direction)
    streamed = survey.fig5(test=test, direction=direction)
    assert streamed.per_path_rates == batch.per_path_rates
    if batch.cdf is None:
        assert streamed.cdf is None
    else:
        assert streamed.cdf is not None
        assert streamed.cdf.values == batch.cdf.values
        assert streamed.fraction_with_reordering == batch.fraction_with_reordering


def test_streaming_sample_counters_tally_every_sample(stored_run):
    result, store = stored_run
    survey = survey_from_store(store)
    for test in TestName.all():
        expected = sum(
            record.report.result.sample_count()
            for record in result.records_for(test=test)
            if record.report.result is not None
        )
        assert survey.sample_counter(test).samples == expected


def test_scenario_slices_key_by_stamp(stored_run):
    result, store = stored_run
    survey = survey_from_store(store)
    slices = survey.scenario_slices()
    assert set(slices) == {"bursty-loss"}
    assert slices["bursty-loss"].measurements_total == survey.measurements_total


def test_survey_merge_equals_single_pass(stored_run):
    result, _store = stored_run
    whole = stream_survey(result.records, host_addresses=result.host_addresses)
    cut = len(result.records) // 2
    left = stream_survey(result.records[:cut], host_addresses=result.host_addresses)
    right = stream_survey(result.records[cut:])
    left.merge(right)
    assert left.eligibility().to_table() == whole.eligibility().to_table()
    assert left.path_rates(TestName.SYN, Direction.FORWARD) == whole.path_rates(
        TestName.SYN, Direction.FORWARD
    )
    assert left.records_observed == whole.records_observed


def test_partial_store_streams_only_durable_shards(tmp_path):
    class Stop(BaseException):
        pass

    def crash(outcome, completed, total):
        if completed >= 1:
            raise Stop

    store_dir = tmp_path / "partial"
    with pytest.raises(Stop):
        _run(
            CampaignRequest(
                scenario="imc2002-survey",
                config=CONFIG,
                hosts=4,
                seed=7,
                shards=2,
                store=store_dir,
                on_checkpoint=crash,
            )
        )
    store = CampaignStore.open(store_dir)
    assert not store.is_complete()
    survey = survey_from_store(store)
    # The plan still fixes the population; only the durable records stream.
    assert survey.eligibility().total_hosts == 4
    assert 0 < survey.records_observed < 4 * CONFIG.rounds * len(TestName.all())
