"""The package's public names."""

import ttdmrg


def test_all_is_sorted_unique_and_resolves():
    names = ttdmrg.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(ttdmrg, name) is not None, name


def test_chain_fit_is_not_exported():
    for name in ("TwoSiteChain", "fit_chain", "pad_ranks"):
        assert name not in ttdmrg.__all__
        assert not hasattr(ttdmrg, name)
