"""The suite's own pytest configuration: warnings are errors, and a failing
Hypothesis test is reported as a failure without stopping the run."""

pytest_plugins = ["pytester"]


def test_failing_property_test_does_not_stop_the_run(pytester, pytestconfig):
    # Run in a fresh interpreter: the warning comes from a first import,
    # which this process may already have made.
    pytester.makeini(
        "[pytest]\nfilterwarnings =\n"
        + "".join(f"    {entry}\n" for entry in pytestconfig.getini("filterwarnings"))
    )
    pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x > 10**9

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert result.ret == 1
    result.assert_outcomes(failed=1, passed=1)
