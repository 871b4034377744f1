"""Tests for repro.synthesis.catalog."""

import os
import subprocess
import sys

import numpy as np

from repro.logs.signature_tree import SignatureTree
from repro.synthesis.catalog import (
    FAULT_SYMPTOM_TEMPLATES,
    PHYSICAL_TEMPLATES,
    ROUTINE_TEMPLATES,
    UPDATE_TEMPLATES,
    catalog_by_name,
)
from repro.tickets.ticket import RootCause
from repro.timeutil import TRACE_START


class TestCatalogIntegrity:
    def test_names_unique(self):
        index = catalog_by_name()
        assert len(index) >= 40

    def test_every_root_cause_has_symptoms(self):
        for cause in RootCause:
            if cause is RootCause.DUPLICATE:
                continue
            assert FAULT_SYMPTOM_TEMPLATES[cause.value]

    def test_paper_signatures_present(self):
        """The two operational findings quoted in section 5.3."""
        index = catalog_by_name()
        assert "invalid response from peer chassis-control" in (
            index["chassis_peer_invalid"].pattern
        )
        assert "bgp reject path" in (
            index["bgp_unusable_aspath"].pattern
        )

    def test_routine_weights_positive(self):
        assert all(spec.weight > 0 for spec in ROUTINE_TEMPLATES)


class TestRendering:
    def test_render_fills_all_placeholders(self):
        rng = np.random.default_rng(0)
        for spec in catalog_by_name().values():
            message = spec.render(TRACE_START, "vpe00", rng)
            assert "{" not in message.text
            assert "}" not in message.text
            assert message.process == spec.process
            assert message.severity == spec.severity

    def test_render_varies_fields(self):
        rng = np.random.default_rng(0)
        spec = catalog_by_name()["bgp_keepalive"]
        texts = {
            spec.render(TRACE_START, "vpe00", rng).text
            for _ in range(10)
        }
        assert len(texts) > 1

    def test_rendered_variants_mine_to_one_signature(self):
        """Each catalog template must be stable under the signature
        tree: its variants collapse to few signatures."""
        rng = np.random.default_rng(0)
        for spec in ROUTINE_TEMPLATES:
            tree = SignatureTree()
            for _ in range(30):
                tree.insert(spec.render(TRACE_START, "vpe00", rng))
            assert tree.n_signatures <= 2, spec.name

    def test_deterministic_given_seed(self):
        spec = catalog_by_name()["ospf_spf"]
        a = spec.render(TRACE_START, "x", np.random.default_rng(5)).text
        b = spec.render(TRACE_START, "x", np.random.default_rng(5)).text
        assert a == b

    def test_independent_of_hash_seed(self):
        """Fresh interpreters under different PYTHONHASHSEEDs render
        the whole catalog identically: placeholder order must not come
        from a set."""
        script = (
            "import numpy as np\n"
            "from repro.synthesis.catalog import catalog_by_name\n"
            "rng = np.random.default_rng(7)\n"
            "for name, spec in sorted(catalog_by_name().items()):\n"
            "    print(spec.render(0.0, 'vpe00', rng).text)\n"
        )
        texts = [
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                check=True,
                env={**os.environ, "PYTHONHASHSEED": seed},
            ).stdout
            for seed in ("1", "2")
        ]
        assert texts[0] == texts[1]
        assert texts[0].count("\n") == len(catalog_by_name())


class TestGroupSeparation:
    def test_update_templates_disjoint_from_routine(self):
        routine = {spec.name for spec in ROUTINE_TEMPLATES}
        update = {spec.name for spec in UPDATE_TEMPLATES}
        assert not routine & update

    def test_physical_templates_disjoint_from_routine(self):
        routine = {spec.name for spec in ROUTINE_TEMPLATES}
        physical = {spec.name for spec in PHYSICAL_TEMPLATES}
        assert not routine & physical
