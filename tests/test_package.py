"""The package's import surface."""

import rankreach


def test_every_exported_name_resolves():
    assert len(set(rankreach.__all__)) == len(rankreach.__all__)
    for name in rankreach.__all__:
        assert getattr(rankreach, name) is not None, name


def test_model_inputs_have_one_road_in():
    # P enters as a CSRMatrix; u and v as arrays, or through the CLI's
    # --config, --u and --v, which have no library type of their own
    assert "CSRMatrix" in rankreach.__all__
    assert rankreach.CSRMatrix is rankreach.graph.CSRMatrix
    for gone in ("StochasticConfig", "load_config"):
        assert gone not in rankreach.__all__
        assert not hasattr(rankreach, gone)
        assert not hasattr(rankreach.stochastic, gone)
