"""Span tracing of the phistep package, installed from outside.

The tracer replaces public functions of the package with wrappers that
record one span per call: name, start, end and the enclosing span.
Where another phistep module holds the same function object (through
``from .x import f``), that binding is replaced too, so calls through
either name are seen.  A name that no longer exists is listed in
``missing`` rather than raised.  Spans stay in memory; ``layer_metrics``
and ``run_metrics`` reduce them when the measured call sequence ends.

With ``speed_kind`` the wrappers also time ``speed.sample()`` right
after each call returns, outside its span, and keep it in ``samples``.
An integration's span stores as ``speed_s`` the sample time at the middle
of its stepping loop, which ends the call, interpolated linearly between
the samples just before and just after the call: about their mean when
stepping fills the call, about the sample after it when stepping is a
short tail after a long set-up.  Call ``sample()`` once before the
measured call sequence so that the first call has a sample before it.
"""
from __future__ import annotations

import functools
import sys
import time
from typing import Optional

import speed

INTEGRATE = "integrator.integrate"
DISCRETIZE = "problems.discretize"
STEPS = ("integrator.step", "integrator.gen_lawson_step")
TRANSFORMS = ("spectral.to_coeffs", "spectral.to_values")
NONLINEAR = "spectral.apply_nonlinear"
PHI = "phifun.phi_contour"
GAMMA = "phifun.gamma_contour"
EXPR = "phifun.eval_phi_expr"
PREPARE = "integrator.prepare_scheme"
REFERENCE = "bench.reference_solution"
OUTPUTS = ("bench.save_field", "bench.export")


def _integration_info(args, result) -> dict:
    return {
        "scheme": str(result.scheme),
        "seconds": float(result.seconds),
        "steps": int(result.steps),
        "fft_total": int(getattr(result, "fft_total", 0)),
        "starter_iterations": int(getattr(result, "starter_iterations", 0)),
    }


def _transform_bytes(args, result) -> int:
    return int(getattr(args[0], "nbytes", 0)) + int(getattr(result, "nbytes", 0))


# The end-to-end probe: two wrappers, called a few dozen times per run.
PROBE = {
    DISCRETIZE: None,
    INTEGRATE: _integration_info,
}

# Every layer boundary the per-layer metrics need.
FULL = {
    **PROBE,
    PHI: None,
    GAMMA: None,
    EXPR: None,
    PREPARE: None,
    # gives the starter's bootstrap prepare_scheme a parent other than integrate
    "integrator.start_multistep": None,
    STEPS[0]: None,
    STEPS[1]: None,
    TRANSFORMS[0]: _transform_bytes,
    TRANSFORMS[1]: _transform_bytes,
    NONLINEAR: None,
    REFERENCE: None,
    OUTPUTS[0]: None,
    OUTPUTS[1]: None,
}


class Tracer:
    """Records spans for the targets ``{"module.name": info_fn}``.

    ``info_fn(args, result)``, when given, stores extra data on the span.
    """

    def __init__(self, targets: dict, speed_kind: Optional[str] = None):
        self.targets = targets
        self.speed_kind = speed_kind
        self.spans: list = []  # [name, start, end, parent index, info]
        self.samples: list = []  # speed.sample() times, when speed_kind is set
        self._sampled_at: list = []  # the clock at the middle of each sample
        self.missing: list = []
        self._stack: list = []

    def sample(self) -> None:
        """Time one speed sample outside any call, when sampling."""
        if self.speed_kind:
            start = time.perf_counter()
            self.samples.append(speed.sample(self.speed_kind))
            self._sampled_at.append(0.5 * (start + time.perf_counter()))

    def _speed_during(self, end: float, seconds: float) -> float:
        """The sample time interpolated to the middle of [end - seconds, end]."""
        (t0, t1), (s0, s1) = self._sampled_at[-2:], self.samples[-2:]
        w = min(max((end - 0.5 * seconds - t0) / (t1 - t0), 0.0), 1.0)
        return s0 + w * (s1 - s0)

    def install(self) -> "Tracer":
        if self.speed_kind:
            speed.sample(self.speed_kind)  # untimed: numpy's transform set-up
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "phistep" or n.startswith("phistep."))]
        for target, info in self.targets.items():
            module_name, _, attr = target.partition(".")
            home = sys.modules.get(f"phistep.{module_name}")
            original = getattr(home, attr, None)
            if not callable(original):
                self.missing.append(target)
                continue
            wrapper = self._wrap(target, original, info)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        return self

    def _wrap(self, name: str, fn, info):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sampling = bool(self.speed_kind)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, result)
            if sampling:
                self.sample()
                if span[4] is not None:
                    span[4]["speed_s"] = self._speed_during(span[2], span[4]["seconds"])
            return result

        return wrapper


def run_metrics(spans: list, speed_kind: Optional[str] = None) -> dict:
    """End-to-end set-up and stepping figures from the probe's spans.

    setup_s is discretize plus (integrate wall - IntegrationResult.seconds),
    summed over the run.  step_us is summed seconds over summed steps,
    where an integration the run repeats (same scheme and step count, as
    a sweep's error pass and timing pass are) counts once, at its fastest
    run: the rule ``run_sweep`` itself applies to its timing repetitions.
    A sweep's stepping is a few milliseconds per integration between long
    contour evaluations, and the fastest of two runs is far steadier than
    either one.  With ``speed_kind`` each integration's stepping time is
    first scaled to nominal speed by its ``speed_s``; setup_s stays raw.
    """
    setup = 0.0
    fastest: dict = {}
    for name, start, end, _, info in spans:
        if name == DISCRETIZE:
            setup += end - start
        elif name == INTEGRATE and info is not None:
            setup += (end - start) - info["seconds"]
            seconds = info["seconds"]
            if speed_kind:
                seconds *= speed.NOMINAL_S[speed_kind] / info["speed_s"]
            key = (info["scheme"], info["steps"])
            fastest[key] = min(fastest.get(key, seconds), seconds)
    seconds = sum(fastest.values())
    steps = sum(steps for _, steps in fastest)
    return {"setup_s": setup, "step_us": 1e6 * seconds / steps if steps else 0.0}


def layer_metrics(spans: list, wall: float) -> dict:
    """Per-layer figures from a full trace of one run.

    Per-step figures cover every span inside a step span (starter
    bootstrap steps included) and are divided by the number of steps, so
    step_self_us + transform_us + pointwise_us adds up to the traced
    time per step.
    """
    n = len(spans)
    duration = [s[2] - s[1] for s in spans]
    children = [0.0] * n
    in_step = [False] * n
    in_integrate = [False] * n
    spawned_phi = [False] * n
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent < 0:
            continue
        children[parent] += duration[i]
        parent_name = spans[parent][0]
        in_step[i] = in_step[parent] or parent_name in STEPS
        in_integrate[i] = in_integrate[parent] or parent_name == INTEGRATE
        if name == PHI and parent_name == EXPR:
            spawned_phi[parent] = True

    def total(names, where=None) -> float:
        return sum(duration[i] for i, s in enumerate(spans)
                   if s[0] in names and (where is None or where[i]))

    def count(names, where=None) -> int:
        return sum(1 for i, s in enumerate(spans)
                   if s[0] in names and (where is None or where[i]))

    steps = count(STEPS)
    per_step = 1.0 / steps if steps else 0.0
    step_self = sum(duration[i] - children[i] for i, s in enumerate(spans) if s[0] in STEPS)
    pointwise = sum(duration[i] - children[i] for i, s in enumerate(spans)
                    if s[0] == NONLINEAR and in_step[i])
    moved = sum(s[4] for i, s in enumerate(spans) if s[0] in TRANSFORMS and in_step[i])
    exprs = count((EXPR,))
    expr_hits = sum(1 for i, s in enumerate(spans) if s[0] == EXPR and not spawned_phi[i])

    integrations = [s for s in spans if s[0] == INTEGRATE and s[4] is not None]
    precompute = sum(duration[i] for i, s in enumerate(spans)
                     if s[0] == PREPARE and s[3] >= 0 and spans[s[3]][0] == INTEGRATE)
    integrate_setup = sum((s[2] - s[1]) - s[4]["seconds"] for s in integrations)
    phi_s = total((PHI,))
    return {
        "problems.discretize_s": total((DISCRETIZE,)),
        "phifun.phi_s": phi_s,
        "phifun.phi_calls": count((PHI,)),
        "phifun.contour_s": phi_s + total((GAMMA,)),
        "phifun.gamma_calls": count((GAMMA,)),
        "phifun.expr_hit_ratio": expr_hits / exprs if exprs else 0.0,
        "integrator.precompute_s": precompute,
        "integrator.starter_s": integrate_setup - precompute,
        "integrator.starter_iters": sum(s[4]["starter_iterations"] for s in integrations),
        "integrator.step_self_us": 1e6 * step_self * per_step,
        "spectral.transform_us": 1e6 * total(TRANSFORMS, in_step) * per_step,
        "spectral.transforms_per_step": count(TRANSFORMS, in_step) * per_step,
        "spectral.mb_per_step": 1e-6 * moved * per_step,
        "spectral.pointwise_us": 1e6 * pointwise * per_step,
        "bench.integrations": len(integrations),
        "bench.reference_frac": total((REFERENCE,)) / wall,
        "bench.output_s": total(OUTPUTS),
        # cross-check inputs, not reported as layer metrics
        "transforms_in_integrate": count(TRANSFORMS, in_integrate),
        "fft_total": sum(s[4]["fft_total"] for s in integrations),
    }
