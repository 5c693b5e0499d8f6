"""Analysis and reporting: turns raw campaign / validation data into the
tables and figure series of the paper's evaluation section.

Every survey-level table is a view of one
:class:`~repro.analysis.streaming.StreamingSurvey` fold over the records.
"""

from repro.analysis.agreement import AgreementCell, AgreementMatrix
from repro.analysis.figures import build_fig6_series, build_fig7_series
from repro.analysis.middlebox import HostDiagnosis, MiddleboxTaxonomy
from repro.analysis.report import format_table
from repro.analysis.scenarios import ScenarioComparison, ScenarioSliceSummary
from repro.analysis.streaming import (
    StreamingSurvey,
    stream_survey,
    survey_from_envelope,
    survey_from_store,
)
from repro.analysis.survey import EligibilitySummary, summarize_eligibility
from repro.analysis.validation import validation_table

__all__ = [
    "AgreementCell",
    "AgreementMatrix",
    "EligibilitySummary",
    "HostDiagnosis",
    "MiddleboxTaxonomy",
    "ScenarioComparison",
    "ScenarioSliceSummary",
    "StreamingSurvey",
    "build_fig6_series",
    "build_fig7_series",
    "format_table",
    "stream_survey",
    "summarize_eligibility",
    "survey_from_envelope",
    "survey_from_store",
    "validation_table",
]
