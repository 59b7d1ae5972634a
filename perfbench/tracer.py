"""Per-layer timing of the CLI, recorded from outside the package.

The tracer wraps public functions of ``spinphase`` modules at run time: it
resolves each entry point by name when tracing starts and rebinds every
module-level name in the package that refers to it, so intra-package calls
go through the wrapper too.  An entry point that no longer exists is
reported as missing and every metric of its layer as absent; tracing never
fails the run.

A span's self time is its duration minus the time of the spans it caused.
Bookkeeping done by hooks after a call returns is charged to neither the
span nor its parent, so it shows only in the traced-minus-untraced overhead.
"""

from __future__ import annotations

import builtins
import sys
import time
import types
from collections import defaultdict

import numpy as np

MIB = 1024.0 * 1024.0

#: Timed layers: metric prefix -> the entry points the CLI reaches
#: ("module:attribute[.attribute]").
SPANS = {
    "cli.format": ("cli:sweep_csv_lines", "cli:report_to_dict", "cli:report_table",
                   "cli:json.dumps", "cli:print"),
    "pipeline.sample": ("pipeline:model_traces",),
    "pipeline.assemble": ("pipeline:phase_points",),
    "engine.integrate": ("engine:integrate_sampled_family",),
    "engine.quadrature": ("engine:cumulative_simpson",),
    "engine.offdiag": ("engine:offdiagonal_trace",),
    "engine.transport": ("engine:parallel_transported",),
    "engine.diag": ("engine:diagonal_phase_argument",),
    "engine.ensemble": ("engine:shift_ensembles",),
    "linalg.project": ("linalg:polar_project",),
    "model.closed_forms": ("model:reference_closed_forms", "model:closed_form_propagator"),
    "verify.assemble": ("verify:verify_grid", "verify:verify_point"),
}
#: Counted but untimed: their time stays with the caller.
PHASE_FUNCTIONAL = "linalg:phase_functional"
UNDEFINED_ERROR = "UndefinedPhase"


class _Missing(LookupError):
    pass


def _resolve(entry: str):
    """(module, name, attribute of name or "", function) for an entry point, or raise _Missing."""
    mod_name, _, path = entry.partition(":")
    module = sys.modules.get(f"spinphase.{mod_name}")
    if module is None:
        raise _Missing(entry)
    head, _, tail = path.partition(".")
    if tail:
        owner = getattr(module, head, None)
        fn = getattr(owner, tail, None)
    else:
        fn = getattr(module, head, getattr(builtins, head, None))
    if not callable(fn):
        raise _Missing(entry)
    return module, head, tail, fn


class Tracer:
    """Installs wrappers for one traced call at a time and collects its record."""

    def __init__(self):
        self.missing: list[str] = []
        self._patches: list[tuple[dict, str, object, bool]] = []
        self._stack: list[float] = []
        self.present: set[str] = set()
        self.reset()

    def reset(self) -> None:
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.undefined = 0
        self.points = 0
        self.samples_bytes = 0
        self.trace_bytes = 0
        self.finals: list[tuple] = []
        self.hook_errors: set[str] = set()

    # -- wrappers -------------------------------------------------------

    def _span(self, layer: str, fn, pre=None, post=None):
        stack = self._stack

        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            if pre is not None:
                self._hook(pre, layer, args, kwargs, None)
            t0 = time.perf_counter()
            stack.append(0.0)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = time.perf_counter()
                self.self_s[layer] += t1 - t0 - stack.pop()
                self.calls[layer] += 1
                if ok and post is not None:
                    self._hook(post, layer, args, kwargs, result)
                if stack:
                    stack[-1] += time.perf_counter() - started
            return result

        return wrapper

    def _counting(self, fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if any(c.__name__ == UNDEFINED_ERROR for c in type(exc).__mro__):
                    self.undefined += 1
                raise

        return wrapper

    def _hook(self, hook, layer, args, kwargs, result) -> None:
        try:
            hook(args, kwargs, result)
        except Exception:  # a changed signature must not fail the run
            self.hook_errors.add(layer)

    # -- hooks ----------------------------------------------------------

    def _count_samples(self, args, kwargs, _):
        self.samples_bytes += np.asarray(args[0]).nbytes

    def _count_traces(self, args, kwargs, result):
        self.trace_bytes += sum(
            v.nbytes for tr in result for v in vars(tr).values() if isinstance(v, np.ndarray)
        )

    def _record_finals(self, args, kwargs, result):
        params = list(args[0])
        self.points += len(params)
        self.finals += [(p, tr.U[-1].copy(), float(tr.grid[-1])) for p, tr in zip(params, result)]

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        hooks = {
            "engine:integrate_sampled_family": (self._count_samples, self._count_traces),
            "pipeline:model_traces": (None, self._record_finals),
        }
        self.missing, self.present = [], set()
        for layer, entries in SPANS.items():
            resolved = []
            for entry in entries:
                try:
                    resolved.append((entry, _resolve(entry)))
                except _Missing:
                    self.missing.append(entry)
            # A layer missing any entry point is absent: its time may have
            # moved to a function the benchmark does not know yet.
            if len(resolved) == len(entries):
                self.present.add(layer)
            for entry, (module, head, tail, fn) in resolved:
                pre, post = hooks.get(entry, (None, None))
                self._bind(module, head, tail, fn, self._span(layer, fn, pre, post))
        try:
            module, head, tail, fn = _resolve(PHASE_FUNCTIONAL)
        except _Missing:
            self.missing.append(PHASE_FUNCTIONAL)
        else:
            self.present.add("linalg.phase")
            self._bind(module, head, tail, fn, self._counting(fn))

    def _bind(self, module, head, tail, fn, wrapper) -> None:
        if tail:
            # Attribute of an imported module (cli's json): swap in a copy
            # of the namespace for this module only.
            owner = module.__dict__[head]
            proxy = types.SimpleNamespace(**{k: getattr(owner, k) for k in dir(owner)})
            setattr(proxy, tail, wrapper)
            self._patch(module.__dict__, head, proxy)
            return
        if head not in module.__dict__:  # a builtin such as print
            self._patch(module.__dict__, head, wrapper)
            return
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "spinphase" or name.startswith("spinphase.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(vars(mod), key, wrapper)

    def _patch(self, namespace: dict, key: str, value) -> None:
        had = key in namespace
        self._patches.append((namespace, key, namespace.get(key), had))
        namespace[key] = value

    def uninstall(self) -> None:
        while self._patches:
            namespace, key, old, had = self._patches.pop()
            if had:
                namespace[key] = old
            else:
                del namespace[key]

    # -- results --------------------------------------------------------

    def call_metrics(self, steps: int, closed_form) -> dict[str, float | None]:
        """Per-layer metrics of the call just traced; None marks an absent metric."""
        def timed(layer):
            return self.self_s[layer] if layer in self.present else None

        def counted(layer, value):
            return value if layer in self.present and layer not in self.hook_errors else None

        out = {f"{layer}_s": timed(layer) for layer in SPANS}
        out["pipeline.points"] = counted("pipeline.sample", self.points)
        integrate = out["engine.integrate_s"]
        points = out["pipeline.points"]
        out["engine.step_rate"] = (
            points * steps / integrate if integrate and points is not None else None
        )
        out["engine.quadrature_calls"] = counted("engine.quadrature", self.calls["engine.quadrature"])
        out["engine.trace_mib"] = counted("engine.integrate", self.trace_bytes / MIB)
        out["engine.samples_mib"] = counted("engine.integrate", self.samples_bytes / MIB)
        out["linalg.project_calls"] = counted("linalg.project", self.calls["linalg.project"])
        out["linalg.undefined"] = self.undefined if "linalg.phase" in self.present else None
        defect = u_err = None
        if "pipeline.sample" not in self.hook_errors and self.finals:
            try:
                us = np.array([u for _, u, _ in self.finals])
                eye = np.eye(us.shape[-1])
                gram = us.conj().swapaxes(-1, -2) @ us
                defect = float(np.max(np.linalg.norm(gram - eye, axis=(-2, -1))))
                if closed_form is not None:
                    u_err = max(
                        float(np.linalg.norm(u - closed_form(p, t))) for p, u, t in self.finals
                    )
            except Exception:
                defect = u_err = None
        out["engine.unitarity_defect_max"] = defect
        out["engine.u_err_max"] = u_err
        return out
