"""Tuned auto requests through the compile service and the wire codec."""

from __future__ import annotations

import pytest

from repro.models.mlp import build_mlp
from repro.serve import CompileRequest, CompileService
from repro.serve.protocol import request_from_wire, request_to_wire


def small_graph():
    return build_mlp(
        batch_size=8, input_dim=32, hidden_dim=64, num_layers=2,
        num_classes=16,
    ).graph


@pytest.fixture()
def service():
    with CompileService(workers=2) as svc:
        yield svc


class TestKeyAndWire:
    def test_tuner_options_change_the_dedup_key(self):
        graph = small_graph()
        plain = CompileRequest(graph=graph, strategy="auto", num_workers=4)
        tuned = CompileRequest(
            graph=graph, strategy="auto", num_workers=4,
            tuner={"max_candidates": 4},
        )
        assert plain.key() != tuned.key()

    def test_pre_tuner_keys_are_stable(self):
        # tuner=None must not perturb the key of any existing request.
        graph = small_graph()
        request = CompileRequest(graph=graph, strategy="tofu", num_workers=4)
        explicit = CompileRequest(
            graph=graph, strategy="tofu", num_workers=4, tuner=None
        )
        assert request.key() == explicit.key()

    def test_wire_round_trip_preserves_tuner_options(self):
        request = CompileRequest(
            graph=small_graph(), strategy="auto", num_workers=4,
            tuner={"max_candidates": 4, "max_seconds": 30.0},
        )
        rebuilt = request_from_wire(request_to_wire(request))
        assert rebuilt.tuner == request.tuner
        assert rebuilt.key() == request.key()


class TestService:
    def test_tuned_auto_request_compiles(self, service):
        response = service.compile(
            CompileRequest(
                graph=small_graph(), strategy="auto", num_workers=4,
                tuner={"max_candidates": 4},
            )
        )
        assert response.ok
        evaluated = [
            o for o in response.model["tuner"]["outcomes"] if o["status"] != "skipped"
        ]
        assert len(evaluated) <= 4

    def test_bad_tuner_options_become_error_responses(self, service):
        response = service.compile(
            CompileRequest(
                graph=small_graph(), strategy="auto", num_workers=4,
                tuner={"max_candidatez": 4},
            )
        )
        assert not response.ok
        assert "TunerBudget" in response.error

    def test_tuner_jobs_option_is_an_error_response(self, service):
        # The tuner runs in-process; a pool width is no budget field.
        response = service.compile(
            CompileRequest(
                graph=small_graph(), strategy="auto", num_workers=4,
                tuner={"max_candidates": 4, "jobs": 2},
            )
        )
        assert not response.ok
        assert "unknown TunerBudget field(s): ['jobs']" in response.error

    def test_tuner_on_explicit_strategy_is_an_error_response(self, service):
        response = service.compile(
            CompileRequest(
                graph=small_graph(), strategy="tofu", num_workers=4,
                tuner={"max_candidates": 4},
            )
        )
        assert not response.ok
        assert "tuner" in response.error
