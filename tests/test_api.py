import voilab

# What a user calls: the scenario vocabulary, the two engines, their reports
# and errors.  Internal steps of ``analyze`` stay importable from their modules.
PUBLIC = {
    "ADMISSIONS",
    "AnalyticReport",
    "BinaryValue",
    "ClassExponentialService",
    "DependentService",
    "DescendFunction",
    "DISCIPLINES",
    "ExponentialValue",
    "IndependentDeterministicService",
    "IndependentExponentialService",
    "MG11",
    "MG12",
    "MG12_STAR",
    "QuadratureError",
    "Scenario",
    "SimConfig",
    "SimReport",
    "UniformValue",
    "UnsupportedAnalyticsError",
    "analyze",
    "closed_form_report",
    "simulate",
}


def test_every_export_resolves_once():
    names = voilab.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(voilab, name)]
    assert missing == []


def test_exports_are_exactly_the_public_names():
    assert set(voilab.__all__) == PUBLIC and len(PUBLIC) == 22
