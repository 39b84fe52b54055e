"""NPY001 (implicit dtype in hot paths) and NPY002 (.tolist() in hot paths).

Both rules only apply to files matched by ``LintConfig.hot_paths``, so each
test runs the same source as a hot and a cold file.
"""

from __future__ import annotations

import textwrap

from repro.lint import LintConfig

from .conftest import findings_for, rules_fired

HOT = LintConfig(hot_paths=("engine.py",))

IMPLICIT_DTYPE = textwrap.dedent(
    """
    import numpy as np

    def pack(values):
        return np.asarray(values)
    """
)

EXPLICIT_DTYPE = textwrap.dedent(
    """
    import numpy as np

    def pack(values):
        return np.asarray(values, dtype=np.float64)
    """
)

TOLIST = textwrap.dedent(
    """
    import numpy as np

    def rows(arr):
        return arr.tolist()
    """
)


class TestNpy001ImplicitDtype:
    def test_implicit_asarray_in_hot_path_fires(self, lint_tree):
        result, _ = lint_tree({"engine.py": IMPLICIT_DTYPE}, HOT)
        found = findings_for(result, "NPY001")
        assert len(found) == 1
        assert "dtype" in found[0].message

    def test_explicit_dtype_is_clean(self, lint_tree):
        result, _ = lint_tree({"engine.py": EXPLICIT_DTYPE}, HOT)
        assert rules_fired(result) == []

    def test_cold_path_is_exempt(self, lint_tree):
        result, _ = lint_tree({"util.py": IMPLICIT_DTYPE}, HOT)
        assert rules_fired(result) == []

    def test_zeros_and_full_constructors_fire(self, lint_tree):
        result, _ = lint_tree({
            "engine.py": textwrap.dedent(
                """
                import numpy as np

                def alloc(n):
                    return np.zeros(n), np.full(n, np.nan)
                """
            )
        }, HOT)
        assert len(findings_for(result, "NPY001")) == 2

    def test_positional_dtype_is_clean(self, lint_tree):
        result, _ = lint_tree({
            "engine.py": textwrap.dedent(
                """
                import numpy as np

                def alloc(n):
                    return np.zeros(n, np.int64)
                """
            )
        }, HOT)
        assert rules_fired(result) == []


class TestNpy002Tolist:
    def test_tolist_in_hot_path_fires(self, lint_tree):
        result, _ = lint_tree({"engine.py": TOLIST}, HOT)
        found = findings_for(result, "NPY002")
        assert len(found) == 1
        assert "tolist" in found[0].message

    def test_cold_path_is_exempt(self, lint_tree):
        result, _ = lint_tree({"util.py": TOLIST}, HOT)
        assert rules_fired(result) == []

    def test_array_math_is_clean(self, lint_tree):
        result, _ = lint_tree({
            "engine.py": textwrap.dedent(
                """
                import numpy as np

                def total(arr):
                    return float(arr.astype(np.float64).sum())
                """
            )
        }, HOT)
        assert rules_fired(result) == []


class TestKernelsAreHotByDefault:
    """The default config must hold ``repro.kernels`` to NumPy hygiene."""

    def test_planted_tolist_in_kernel_fires(self, lint_tree):
        result, _ = lint_tree({"kernels/scan.py": TOLIST}, LintConfig())
        found = findings_for(result, "NPY002")
        assert len(found) == 1
        assert "tolist" in found[0].message

    def test_planted_implicit_dtype_in_kernel_fires(self, lint_tree):
        result, _ = lint_tree(
            {"kernels/ecc.py": IMPLICIT_DTYPE}, LintConfig()
        )
        assert len(findings_for(result, "NPY001")) == 1

    def test_default_hot_paths_cover_kernels_dir(self):
        config = LintConfig()
        assert config.is_hot_path("src/repro/kernels/scan.py")
        assert config.is_hot_path("src/repro/kernels/extract.py")
        assert config.is_hot_path("src/repro/scheduler/jobs.py")
        assert config.is_hot_path("src/repro/faultinjection/sessions.py")
        assert not config.is_hot_path("src/repro/scanner/tool.py")
        assert not config.is_hot_path("src/repro/faultinjection/campaign.py")
