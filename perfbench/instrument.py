"""Wrappers around the public functions of charpos, and the per-layer
metrics computed from what they record.

Every span is named <module>.<function>, so the layer metrics read
<name>.s (total time), <name>.calls and <name>.self_s directly off the
tracer's totals.  All values are per repetition of the workload.
"""

from __future__ import annotations

import importlib
import sys

from tracing import Tracer, patch_everywhere, traced, traced_generator, unpatch

# (module, function, hot).  Hot functions run more than about 10**4 times
# in one run somewhere (jacobi in the checker, fq_prime_frac and its sieve
# in the census), so they are aggregated instead of kept span by span.
TARGETS = (
    ("ntcore", "chi_values", False),
    ("ntcore", "chi_sieve", True),
    ("ntcore", "primes_in_range", False),
    ("ntcore", "jacobi", True),
    ("ntcore", "pi4_times_at_least", True),
    ("ntcore", "is_prime", True),
    ("charsum", "margin_values", False),
    ("charsum", "class_number", False),
    ("fq", "fq_prime_frac", True),
    ("fq", "lattice_quad_values", False),
    ("fq", "identity_check", False),
    ("liouville", "agreement_length", False),
    ("verify", "scan_positivity", False),
    ("verify", "certify_f_positive", False),
    ("verify", "verify_certificate", False),
    ("verify", "scan_prime_fracs", False),
)


def kernel_bytes_per_entry(itemsize: int) -> int:
    """Bytes the margin kernel materialises per entry (computed, not measured).

    The int8 character table plus eight entry-sized integer arrays in
    charsum._scan_arrays: the widened table, the index, A, n*chi, B, h - A,
    n*(h - A) and W.
    """
    return 1 + 8 * itemsize


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Instrument:
    """Installs the wrappers into every loaded charpos module."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []
        self._class_cache = None

    def install(self) -> None:
        tracer = self.tracer
        modules = [m for n, m in sys.modules.items()
                   if n == "charpos" or n.startswith("charpos.")]

        def kernel_done(result):
            w = result[1]
            tracer.count("charsum.kernel.entries", len(w))
            tracer.count("charsum.kernel.bytes_computed",
                         len(w) * kernel_bytes_per_entry(w.itemsize))

        def census_call(args, kwargs):
            p = _arg(args, kwargs, 1, "p")
            q = _arg(args, kwargs, 2, "q_or_chi")
            tracer.seen("fq.census.sieve", (int(p), int(getattr(q, "q", q))))

        hooks = {"charsum.margin_values": {"after": kernel_done},
                 "fq.fq_prime_frac": {"before": census_call}}
        for mod_name, fn_name, hot in TARGETS:
            home = importlib.import_module(f"charpos.{mod_name}")
            original = getattr(home, fn_name)
            name = f"{mod_name}.{fn_name}"
            if fn_name == "chi_sieve":
                wrapper = traced_generator(
                    tracer, original, name, hot=hot,
                    per_item=lambda _: tracer.count("ntcore.chi_sieve.slabs"))
            else:
                wrapper = traced(tracer, original, name, hot=hot,
                                 **hooks.get(name, {}))
            self._undo += patch_everywhere(modules, original, wrapper)
        self._class_cache = importlib.import_module(
            "charpos.charsum")._class_number_cached

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []

    def class_hits(self) -> int:
        return self._class_cache.cache_info().hits

    def layer_metrics(self, class_hits: int) -> dict[str, float]:
        """Per-layer metrics of the repetition the tracer has just recorded."""
        tracer = self.tracer
        out: dict[str, float] = {}
        for mod_name, fn_name, _ in TARGETS:
            calls, total, self_s = tracer.totals.get(f"{mod_name}.{fn_name}",
                                                     (0, 0.0, 0.0))
            out[f"{mod_name}.{fn_name}.calls"] = calls
            out[f"{mod_name}.{fn_name}.s"] = total
            out[f"{mod_name}.{fn_name}.self_s"] = self_s
        counts = tracer.counts
        for key in ("ntcore.chi_sieve.slabs", "charsum.kernel.entries",
                    "charsum.kernel.bytes_computed", "certify.json_bytes"):
            out[key] = counts.get(key, 0)
        entries = out["charsum.kernel.entries"]
        out["charsum.kernel.ns_per_entry"] = (
            1e9 * out["charsum.margin_values.s"] / entries if entries else 0.0)
        out["charsum.class_number.hits"] = class_hits
        uses = counts.get("fq.census.sieve.uses", 0)
        out["fq.census.sieve_reuse_share"] = (
            counts.get("fq.census.sieve.reuses", 0) / uses if uses else 0.0)
        out["certify.json_s"] = tracer.totals.get("certify.json",
                                                  (0, 0.0, 0.0))[1]
        return out
