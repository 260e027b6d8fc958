"""Matrix-loop pass (M203): per-row loops in ML predict/transform paths."""

import textwrap

from repro.analysis.matrix_loops import check_matrix_loops

from .conftest import run_pass


def rules_of(source):
    return [
        f.rule for f in run_pass(check_matrix_loops, "mod.py", textwrap.dedent(source))
    ]


class TestM203:
    def test_range_len_over_param_flagged(self):
        source = """
        def predict(self, X):
            out = []
            for i in range(len(X)):
                out.append(score(X[i]))
            return out
        """
        assert rules_of(source) == ["M203"]

    def test_range_shape_zero_flagged(self):
        source = """
        def transform_rows(self, rows):
            for i in range(rows.shape[0]):
                handle(rows[i])
        """
        assert rules_of(source) == ["M203"]

    def test_zip_over_param_flagged(self):
        source = """
        def predict(self, X, y):
            for row, label in zip(X, y):
                compare(row, label)
        """
        assert rules_of(source) == ["M203"]

    def test_enumerate_over_param_flagged(self):
        source = """
        def transform(self, matrix):
            for i, row in enumerate(matrix):
                emit(i, row)
        """
        assert rules_of(source) == ["M203"]

    def test_loop_over_local_is_clean(self):
        source = """
        def predict(self, X):
            n = len(X)
            chunk = 512
            for start in range(0, n, chunk):
                consume(X[start:start + chunk])
        """
        assert rules_of(source) == []

    def test_loop_over_classes_is_clean(self):
        source = """
        def predict(self, X):
            scores = []
            for c in range(self.n_classes):
                scores.append(self.score_class(X, c))
            return scores
        """
        assert rules_of(source) == []

    def test_non_hot_function_is_clean(self):
        source = """
        def fit(self, X, y):
            for i in range(len(X)):
                self.update(X[i], y[i])
        """
        assert rules_of(source) == []

    def test_object_reference_helper_is_clean(self):
        source = """
        def _predict_object(self, X):
            for i in range(len(X)):
                walk(X[i])
        """
        assert rules_of(source) == []

    def test_nested_helper_params_not_hot(self):
        source = """
        def predict(self, X):
            def emit(rows):
                for i in range(len(rows)):
                    yield rows[i]
            return collect(emit(X))
        """
        assert rules_of(source) == []

    def test_nested_loop_in_hot_function_flagged(self):
        source = """
        def predict(self, X):
            for c in self.classes:
                for i, row in enumerate(X):
                    vote(c, row)
        """
        assert rules_of(source) == ["M203"]

    def test_finding_carries_location_and_source(self):
        source = textwrap.dedent(
            """
            def predict(self, X):
                for i in range(len(X)):
                    pass
            """
        )
        (finding,) = run_pass(check_matrix_loops, "repro/ml/model.py", source)
        assert finding.path == "repro/ml/model.py"
        assert finding.line == 3
        assert finding.source == "for i in range(len(X)):"


class TestRouting:
    def test_ml_package_routed_and_suppressible(self, tmp_path):
        from repro.analysis import lint_paths

        pkg = tmp_path / "repro" / "ml"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "slow.py").write_text(
            textwrap.dedent(
                """
                def predict(X):
                    for i in range(len(X)):
                        pass
                """
            )
        )
        (pkg / "waived.py").write_text(
            textwrap.dedent(
                """
                def predict(X):
                    # repro: allow[M203] scalar fallback kept for testing
                    for i in range(len(X)):
                        pass
                """
            )
        )
        result = lint_paths([tmp_path])
        gating = [f for f in result.new_findings if f.rule == "M203"]
        assert [f.path for f in gating] == [str(pkg / "slow.py")]
        waived = [f for f in result.suppressed if f.rule == "M203"]
        assert [f.path for f in waived] == [str(pkg / "waived.py")]

    def test_outside_ml_not_routed(self, tmp_path):
        from repro.analysis import lint_paths

        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "slow.py").write_text(
            textwrap.dedent(
                """
                def predict(X):
                    for i in range(len(X)):
                        pass
                """
            )
        )
        result = lint_paths([tmp_path])
        assert [f for f in result.new_findings if f.rule == "M203"] == []
