"""The survey fold against the batch oracle.

:class:`StreamingSurvey` is the only implementation of the §IV tables.  These
tests pin it to the batch code it replaced (``tests/_analysis_oracle.py``):
for every registry scenario, each table the fold gives — eligibility, Figure 5
for every (test, direction), pairwise agreement, the middlebox taxonomy and
the scenario comparison — must equal the oracle's exactly, including the
floating-point per-path means.  A complete store streamed through the fold
must give the same tables as its materialized records.
"""

from __future__ import annotations

import pytest

from repro.analysis.streaming import stream_survey, survey_from_envelope, survey_from_store
from repro.api import CampaignRequest, MatrixRequest, Session
from repro.core.campaign import CampaignConfig
from repro.core.prober import TestName
from repro.core.runner import EXECUTOR_SERIAL
from repro.core.sample import Direction
from repro.scenarios import MIXED_OS, scenario_names
from repro.store import CampaignStore
import _analysis_oracle as oracle

CONFIG = CampaignConfig(
    rounds=2,
    samples_per_measurement=4,
    inter_measurement_gap=0.2,
    inter_round_gap=1.0,
)

# Three rounds, so that agreement has min_pairs=3 paired rounds to compare.
ORACLE_CONFIG = CampaignConfig(
    rounds=3,
    samples_per_measurement=4,
    inter_measurement_gap=0.2,
    inter_round_gap=1.0,
)

FIG5_VIEWS = [(test, direction) for test in TestName.all() for direction in Direction]


def _run(request):
    with Session(backend=EXECUTOR_SERIAL) as session:
        return session.run(request)


def assert_same_fig5(fold, batch):
    assert (fold.test, fold.direction) == (batch.test, batch.direction)
    assert list(fold.per_path_rates.items()) == list(batch.per_path_rates.items())
    if batch.cdf is None:
        assert fold.cdf is None
    else:
        assert fold.cdf is not None
        assert fold.cdf.values == batch.cdf.values
    assert fold.fraction_with_reordering == batch.fraction_with_reordering


def assert_same_comparison(fold, batch):
    assert [item.scenario for item in fold.slices] == [item.scenario for item in batch.slices]
    for mine, theirs in zip(fold.slices, batch.slices):
        assert mine.eligibility == theirs.eligibility
        assert_same_fig5(mine.fig5, theirs.fig5)
        assert mine.mean_path_rate == theirs.mean_path_rate
    assert fold.to_table() == batch.to_table()


def assert_fold_equals_oracle(survey, result):
    """Every table of ``survey`` equals the oracle's over ``result``; returns
    the fold's agreement matrix."""
    assert survey.eligibility() == oracle.summarize_eligibility(result)
    assert survey.eligibility().to_table() == oracle.summarize_eligibility(result).to_table()
    for test, direction in FIG5_VIEWS:
        assert_same_fig5(survey.fig5(test, direction), oracle.build_fig5_cdf(result, test, direction))
    agreement = survey.agreement()
    assert agreement == oracle.compute_agreement(result)
    assert agreement.to_table() == oracle.compute_agreement(result).to_table()
    assert survey.taxonomy() == oracle.classify_middleboxes(result)
    assert survey.taxonomy().to_table() == oracle.classify_middleboxes(result).to_table()
    assert_same_comparison(
        survey.comparison(), oracle.compare_scenarios({result.scenario: result})
    )
    return agreement


@pytest.mark.parametrize("name", scenario_names())
def test_fold_equals_the_oracle_on_every_table(name):
    result = _run(
        CampaignRequest(scenario=name, config=ORACLE_CONFIG, hosts=4, seed=11, shards=2)
    ).result
    agreement = assert_fold_equals_oracle(
        stream_survey(result.records, result.host_addresses), result
    )
    # Three rounds of every technique: agreement really compares hosts.
    assert sum(cell.hosts_compared for cell in agreement.cells) > 0


def test_matrix_comparison_equals_the_oracle_cell_by_cell():
    envelope = _run(
        MatrixRequest(
            scenarios=("imc2002-survey", "syn-filtered"),
            os_names=(MIXED_OS, "linux-2.4"),
            config=ORACLE_CONFIG,
            hosts=4,
            seed=11,
            shards=2,
        )
    )
    cells = dict(envelope.payload.runs)
    survey = survey_from_envelope(envelope)
    assert list(survey.scenario_slices()) == list(cells)
    assert_same_comparison(survey.comparison(), oracle.compare_scenarios(cells))
    for direction in Direction:
        assert_same_comparison(
            survey.comparison(TestName.SYN, direction),
            oracle.compare_scenarios(cells, TestName.SYN, direction),
        )
    for label, slice_ in survey.scenario_slices().items():
        assert slice_.agreement(min_pairs=2) == oracle.compute_agreement(cells[label], min_pairs=2)
        assert slice_.taxonomy() == oracle.classify_middleboxes(cells[label])


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
    batch = oracle.summarize_eligibility(result)
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
    assert_same_fig5(
        survey.fig5(test=test, direction=direction),
        oracle.build_fig5_cdf(result, test=test, direction=direction),
    )


def test_store_fold_equals_the_fold_over_its_loaded_records(stored_run):
    _result, store = stored_run
    streamed = survey_from_store(store)
    loaded = store.load_result()
    in_memory = stream_survey(loaded.records, loaded.host_addresses)
    assert streamed.records_observed == in_memory.records_observed == len(loaded.records)
    assert streamed.eligibility() == in_memory.eligibility()
    for test, direction in FIG5_VIEWS:
        assert_same_fig5(streamed.fig5(test, direction), in_memory.fig5(test, direction))
    assert streamed.agreement(min_pairs=2) == in_memory.agreement(min_pairs=2)
    assert streamed.taxonomy() == in_memory.taxonomy()
    assert_same_comparison(streamed.comparison(), in_memory.comparison())


def test_scenario_slices_key_by_stamp(stored_run):
    result, store = stored_run
    survey = survey_from_store(store)
    slices = survey.scenario_slices()
    assert set(slices) == {"bursty-loss"}
    assert slices["bursty-loss"].measurements_total == survey.measurements_total


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
    # The scenario slice shares that population, so the comparison and the
    # eligibility table count the same hosts.
    assert [item.hosts for item in survey.comparison().slices] == [4]


def test_partial_store_counts_only_probed_hosts_as_eligible(tmp_path):
    """A host whose shard never ran has no record: the eligibility table
    counts it in the population, but neither as eligible nor as ineligible."""

    class Stop(BaseException):
        pass

    def crash(outcome, completed, total):
        raise Stop

    store_dir = tmp_path / "partial"
    with pytest.raises(Stop):
        _run(
            CampaignRequest(
                scenario="imc2002-survey",
                config=CONFIG,
                hosts=8,
                seed=7,
                shards=3,
                store=store_dir,
                on_checkpoint=crash,
            )
        )
    store = CampaignStore.open(store_dir)
    records = list(store.iter_records())
    summary = survey_from_store(store).eligibility()
    assert summary.total_hosts == 8
    assert set(summary.ineligible) == set(TestName.all())
    for test in TestName.all():
        probed = {record.host_address for record in records if record.test is test}
        assert 0 < len(probed) < 8
        assert summary.eligible_hosts(test) + summary.ineligible[test] == len(probed)
