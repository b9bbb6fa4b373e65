"""Per-layer tracing of clseg from outside the program.

`Tracer.install` wraps public functions of the clseg modules. A wrapper is
put wherever its function is looked up: in every loaded clseg module whose
namespace binds the same function object (so `pipeline.train_step`,
`unet.combined_loss` and `unet.adam_step`, imported by name, are covered),
and on the class for `PatchSampler` methods. Each call records a span
(name, start, end, parent span, attributes) in memory; `Tracer.metrics`
reduces the spans to the per-layer metrics once the run ends.

Conv calls are attributed to their `param_specs` layer by the identity of
the kernel array passed, which `unet.forward`/`unet.backward` read from the
parameters they are given; kernel shapes are not unique across layers.

The tracer's own cost is not read off a traced-against-untraced wall-time
pair, which the VM's drifting speed swamps; it is estimated as the span
count times the calibrated cost of one wrapped call.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

import numpy as np

from clseg import evaluation, layers, phantom, pipeline, sampling, unet, volume_io

ROOT = "session"


def _median(xs):
    return float(np.median(xs)) if len(xs) else float("nan")


def _p90(xs):
    return float(np.percentile(xs, 90)) if len(xs) else float("nan")


class Tracer:
    def __init__(self):
        # each span: [name, start_ns, end_ns, parent index, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._kernel_layer: dict[int, str] = {}

    # -- recording -------------------------------------------------------------

    def _open(self, name, attrs):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, attrs])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter_ns()

    @contextlib.contextmanager
    def root(self):
        """The span that covers a whole traced session."""
        self._open(ROOT, {})
        try:
            yield
        finally:
            self._close()

    def _wrapper(self, name, fn, on_call, on_return):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = on_call(*args, **kwargs) if on_call else {}
            self._open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if on_return:
                on_return(attrs, result)
            return result
        return wrapper

    # -- attribute hooks ---------------------------------------------------------

    def _bind_kernels(self, params, *_, **__):
        self._kernel_layer = {id(params.tensors[f"{name}.kernel"]): name
                              for name, _, _ in unet.param_specs(params.config)}
        return {}

    def _forward_attrs(self, params, x, *_, **__):
        self._bind_kernels(params)
        return {"in_voxels": int(np.prod(x.shape[2:])) * x.shape[0]}

    def _conv_attrs(self, x, weight, *_, **__):
        out_vox = np.prod([s - weight.shape[2] + 1 for s in x.shape[2:]])
        flop = 2.0 * x.shape[0] * np.prod(weight.shape) * out_vox
        return {"layer": self._kernel_layer.get(id(weight), "?"), "flop": flop}

    def _conv_backward_attrs(self, x, weight, *_, **__):
        attrs = self._conv_attrs(x, weight)
        attrs["flop"] *= 2.0     # grad_w and grad_x, each the size of the forward
        return attrs

    def _tconv_attrs(self, x, weight, *_, **__):
        return {"layer": self._kernel_layer.get(id(weight), "?")}

    @staticmethod
    def _window_attrs(params, contrasts, *_, **__):
        return {"subject_voxels": int(np.prod(contrasts.shape[1:]))}

    @staticmethod
    def _write_attrs(v, *_, **__):
        return {"bytes": int(v.data.nbytes)}

    @staticmethod
    def _augment_return(attrs, patch):
        attrs["wasted"] = any(a != 0.0 for a in patch.provenance["angles_deg"])

    @staticmethod
    def _eval_return(attrs, patient):
        attrs["n_pred"] = patient.metrics["n_pred"]

    # -- installation ----------------------------------------------------------

    def _targets(self):
        sampler = sampling.PatchSampler
        return [
            ("phantom.generate_cohort", phantom.generate_cohort, None, None),
            ("phantom.generate_subject", phantom.generate_subject, None, None),
            ("volume_io.read_volume", volume_io.read_volume, None, None),
            ("volume_io.write_volume", volume_io.write_volume, self._write_attrs, None),
            ("pipeline.load_training_data", pipeline.load_training_data, None, None),
            ("pipeline.run_training", pipeline.run_training, None, None),
            ("pipeline.run_inference", pipeline.run_inference, None, None),
            ("pipeline.evaluate_predictions", pipeline.evaluate_predictions, None, None),
            ("sampling.draw", sampler.draw, None, None),
            ("sampling.sample_patch", sampler.sample_patch, None, None),
            ("sampling.augment_rotate_flip", sampler.augment_rotate_flip,
             None, self._augment_return),
            ("sampling.input_channel_dropout", sampler.input_channel_dropout, None, None),
            ("unet.train_step", unet.train_step, None, None),
            ("unet.forward", unet.forward, self._forward_attrs, None),
            ("unet.backward", unet.backward, self._bind_kernels, None),
            ("unet.sliding_window_inference", unet.sliding_window_inference,
             self._window_attrs, None),
            ("unet.save_checkpoint", unet.save_checkpoint, None, None),
            ("losses.combined_loss", unet.combined_loss, None, None),
            ("optim.adam_step", unet.adam_step, None, None),
            ("layers.conv3d_forward", layers.conv3d_forward, self._conv_attrs, None),
            ("layers.conv3d_backward", layers.conv3d_backward, self._conv_backward_attrs, None),
            ("layers.transposed_conv3d_forward", layers.transposed_conv3d_forward,
             self._tconv_attrs, None),
            ("layers.transposed_conv3d_backward", layers.transposed_conv3d_backward,
             self._tconv_attrs, None),
            ("layers.maxpool3d_forward", layers.maxpool3d_forward, None, None),
            ("layers.maxpool3d_backward", layers.maxpool3d_backward, None, None),
            ("evaluation.evaluate_patient", evaluation.evaluate_patient,
             None, self._eval_return),
        ]

    def install(self) -> None:
        owners = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "clseg" or n.startswith("clseg."))]
        owners.append(sampling.PatchSampler)
        for name, fn, on_call, on_return in self._targets():
            wrapper = self._wrapper(name, fn, on_call, on_return)
            bound = 0
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        setattr(owner, attr, wrapper)
                        self._patched.append((owner, attr, fn))
                        bound += 1
            if not bound:
                raise RuntimeError(f"tracer: no binding of {name} found")

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- reduction -------------------------------------------------------------

    def _ms(self, i):
        s = self.spans[i]
        return (s[2] - s[1]) / 1e6

    def _ancestor(self, i, name):
        p = self.spans[i][3]
        while p >= 0 and self.spans[p][0] != name:
            p = self.spans[p][3]
        return p

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        spans = self.spans
        by_name = defaultdict(list)
        for i, s in enumerate(spans):
            by_name[s[0]].append(i)

        def med_ms(name, scale=1.0):
            return _median([self._ms(i) * scale for i in by_name[name]])

        # per training step sums of the spans nested in it
        steps = by_name["unet.train_step"]
        per_step = {i: defaultdict(float) for i in steps}
        infer_fwd = []
        for i, s in enumerate(spans):
            st = self._ancestor(i, "unet.train_step")
            if st >= 0:
                acc = per_step[st]
                acc[s[0]] += self._ms(i)
                layer = s[4].get("layer")
                if layer is not None:
                    kind = "fwd" if s[0].endswith("_forward") else "bwd"
                    acc[f"unet.{layer}.{kind}_ms"] += self._ms(i)
            elif s[0] == "unet.forward" and self._ancestor(i, "unet.sliding_window_inference") >= 0:
                infer_fwd.append(i)

        def step_med(*keys):
            return _median([sum(per_step[i][k] for k in keys) for i in steps])

        out: dict[str, tuple[float, str]] = {}
        step_ms = [self._ms(i) for i in steps]
        out["unet.train_steps"] = (float(len(steps)), "count")
        out["unet.train_step_ms_p50"] = (_median(step_ms), "ms")
        out["unet.train_step_ms_p90"] = (_p90(step_ms), "ms")
        out["unet.forward_ms"] = (step_med("unet.forward"), "ms")
        out["unet.backward_ms"] = (step_med("unet.backward"), "ms")
        names = [n for n, _, _ in unet.param_specs(unet.NetworkConfig())]
        for layer in names:
            for kind in ("fwd", "bwd"):
                key = f"unet.{layer}.{kind}_ms"
                out[key] = (step_med(key), "ms")
        out["layers.conv3d_forward_ms"] = (step_med("layers.conv3d_forward"), "ms")
        out["layers.conv3d_backward_ms"] = (step_med("layers.conv3d_backward"), "ms")
        out["layers.tconv_ms"] = (step_med("layers.transposed_conv3d_forward",
                                           "layers.transposed_conv3d_backward"), "ms")
        out["layers.maxpool_ms"] = (step_med("layers.maxpool3d_forward",
                                             "layers.maxpool3d_backward"), "ms")
        for kind in ("forward", "backward"):
            calls = [i for i in by_name[f"layers.conv3d_{kind}"]
                     if self._ancestor(i, "unet.train_step") >= 0]
            flop = sum(spans[i][4]["flop"] for i in calls)
            secs = sum(self._ms(i) for i in calls) / 1e3
            out[f"layers.conv3d_{kind}_gflop"] = (flop / 1e9 / max(1, len(calls)), "GFLOP")
            out[f"layers.conv3d_{kind}_gflops"] = (flop / 1e9 / secs if secs else 0.0,
                                                   "GFLOP/s")
        out["losses.combined_loss_ms"] = (step_med("losses.combined_loss"), "ms")
        out["optim.adam_ms"] = (step_med("optim.adam_step"), "ms")

        draws = by_name["sampling.draw"]
        draw_ms = [self._ms(i) for i in draws]
        out["sampling.draws"] = (float(len(draws)), "count")
        out["sampling.draw_ms_p50"] = (_median(draw_ms), "ms")
        out["sampling.draw_ms_p90"] = (_p90(draw_ms), "ms")
        out["sampling.sample_patch_ms"] = (med_ms("sampling.sample_patch"), "ms")
        out["sampling.augment_ms"] = (med_ms("sampling.augment_rotate_flip"), "ms")
        out["sampling.icd_ms"] = (med_ms("sampling.input_channel_dropout"), "ms")
        aug = by_name["sampling.augment_rotate_flip"]
        wasted = sum(1 for i in aug if spans[i][4]["wasted"])
        out["sampling.extract_wasted_frac"] = (wasted / max(1, len(aug)), "frac")

        windows = by_name["unet.sliding_window_inference"]
        in_vox = sum(spans[i][4]["in_voxels"] for i in infer_fwd)
        subj_vox = sum(spans[i][4]["subject_voxels"] for i in windows)
        out["unet.infer_window_ms"] = (_median([self._ms(i) for i in infer_fwd]), "ms")
        out["unet.infer_windows"] = (len(infer_fwd) / max(1, len(windows)), "count")
        out["unet.infer_input_per_output_voxel"] = (in_vox / subj_vox if subj_vox else 0.0,
                                                    "ratio")
        out["unet.save_checkpoint_ms"] = (med_ms("unet.save_checkpoint"), "ms")

        out["phantom.generate_s_per_subject"] = (med_ms("phantom.generate_subject", 1e-3), "s")
        out["pipeline.load_subjects_s"] = (med_ms("pipeline.load_training_data", 1e-3), "s")
        out["volume_io.read_ms"] = (med_ms("volume_io.read_volume"), "ms")
        out["volume_io.write_ms"] = (med_ms("volume_io.write_volume"), "ms")
        out["volume_io.write_mb"] = (sum(spans[i][4]["bytes"]
                                         for i in by_name["volume_io.write_volume"]) / 1e6, "MB")
        evals = by_name["evaluation.evaluate_patient"]
        out["evaluation.evaluate_patient_ms"] = (med_ms("evaluation.evaluate_patient"), "ms")
        out["evaluation.pred_components"] = (
            sum(spans[i][4]["n_pred"] for i in evals) / max(1, len(evals)), "count")

        # Self time of a span: its duration less that of its direct children.
        # Summed over the program spans that have children (run_training,
        # train_step, forward, backward, run_inference, ...), it is the
        # program time that no layer span covers: batch stacking, log writes,
        # relu, crops, concatenation, softmax. The session root's own self
        # time is the benchmark's glue and is left out.
        child_ms = defaultdict(float)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child_ms[s[3]] += self._ms(i)
        unattributed = sum(self._ms(i) - c for i, c in child_ms.items()
                           if spans[i][0] != ROOT)
        root_ms = sum(self._ms(i) for i in by_name[ROOT])
        out["trace.unattributed_ms"] = (unattributed, "ms")
        out["trace.unattributed_frac"] = (unattributed / root_ms if root_ms else 0.0, "frac")
        out["trace.overhead_frac"] = (
            len(spans) * self.wrapper_cost_ns() / 1e6 / root_ms if root_ms else 0.0, "frac")
        return out

    def wrapper_cost_ns(self, calls: int = 5000, repeats: int = 5) -> float:
        """Time one wrapped call adds over a bare call, in ns.

        Calibrated on a no-op with the conv attribute hook, the most costly
        hook, so that spans x cost bounds the tracer's share of a session
        from above. Best of `repeats`, as the VM's speed drifts.
        """
        probe = Tracer()
        x = np.zeros((1, 1, 3, 3, 3))

        def noop(x, weight):
            return None

        wrapped = probe._wrapper("probe", noop, probe._conv_backward_attrs, None)
        best = float("inf")
        for _ in range(repeats):
            probe.spans.clear()
            t0 = time.perf_counter_ns()
            for _ in range(calls):
                noop(x, x)
            t1 = time.perf_counter_ns()
            for _ in range(calls):
                wrapped(x, x)
            t2 = time.perf_counter_ns()
            best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
        return best
