"""Case runner: one (application, implementation, MANA-config) execution.

A *case* is one bar of one figure.  ``run_case`` builds the workload at
the requested scale, runs it, validates the application state, and
returns a :class:`CaseResult` with the metrics every experiment consumes:
virtual runtime, context switches, call counts.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps import APP_CLASSES
from repro.runtime import JobConfig, Launcher
from repro.util.errors import ReproError


@dataclass
class CaseResult:
    app: str
    impl: str
    mana: bool
    vid_design: str
    platform: str
    nranks: int
    blocks: int
    runtime: float          # virtual seconds (median over trials)
    total_cs: int
    cs_per_second: float
    wrapped_calls: int
    status: str
    trials: int = 1
    runtime_std: float = 0.0  # std across trials (the figures' error bars)

    @property
    def label(self) -> str:
        if not self.mana:
            return f"native/{self.impl}"
        tag = "mana+vid" if self.vid_design == "new" else "mana"
        return f"{tag}/{self.impl}"

    def overhead_vs(self, native: "CaseResult") -> float:
        """Runtime overhead relative to a native case, as a fraction."""
        if native.runtime <= 0:
            return float("nan")
        return self.runtime / native.runtime - 1.0


def scaled_spec(app_name: str, platform: str, scale: float,
                ranks_cap: Optional[int] = None):
    """The paper workload for ``app_name``, scaled for bench tractability.

    ``scale`` shrinks the number of blocks; ``ranks_cap`` optionally caps
    the rank count (per-rank call *rates*, and hence overhead shapes,
    are rank-count invariant by construction).
    """
    cls = APP_CLASSES[app_name]
    spec = cls.paper_config(platform)
    blocks = max(4, round(spec.blocks * scale))
    spec = replace(spec, blocks=blocks)
    if ranks_cap is not None and spec.nranks > ranks_cap:
        spec = replace(spec, nranks=ranks_cap)
    return spec


def run_case(
    app_name: str,
    impl: str,
    mana: bool,
    vid_design: str = "new",
    platform: str = "discovery",
    scale: float = 0.25,
    ranks_cap: Optional[int] = 16,
    seed: int = 12345,
    timeout: float = 600.0,
    trials: int = 1,
) -> CaseResult:
    """Run one case to completion and validate it.

    ``trials > 1`` reproduces the paper's methodology (median of N
    trials, std as the error bar): each trial gets a different seed,
    which perturbs the deterministic OS-noise model.
    """
    cls = APP_CLASSES[app_name]
    spec = scaled_spec(app_name, platform, scale, ranks_cap)
    runtimes = []
    result = None
    # A MANA job opens its checkpoint store even when it takes no
    # checkpoint; give it a directory that goes away with the case.
    with tempfile.TemporaryDirectory(prefix="repro-case-") as ckpt_dir:
        for trial in range(max(1, trials)):
            cfg = JobConfig(
                nranks=spec.nranks,
                impl=impl,
                platform=platform,
                mana=mana,
                vid_design=vid_design,
                seed=seed + 1009 * trial,
                ckpt_dir=ckpt_dir,
            )
            result = Launcher(cfg).run(lambda r: cls(spec), timeout=timeout)
            if result.status != "completed":
                break
            runtimes.append(result.runtime)
    if result.status != "completed":
        err = result.first_error() or ""
        if "IncompatibleHandleError" in err:
            # Surface the legacy-design-vs-pointer-handles failure as its
            # own type: figures render these cases as "n/a" (the paper's
            # motivation for the new design).
            from repro.util.errors import IncompatibleHandleError

            raise IncompatibleHandleError(
                f"{vid_design} virtual ids cannot run on {impl}"
            )
        raise ReproError(
            f"case {app_name}/{impl}/mana={mana}/{vid_design} failed: {err}"
        )
    for app in result.apps():
        err = app.validate(None)
        if err:
            raise ReproError(f"case {app_name}/{impl}: validation: {err}")
    import statistics

    median_rt = statistics.median(runtimes)
    std_rt = statistics.pstdev(runtimes) if len(runtimes) > 1 else 0.0
    return CaseResult(
        app=app_name,
        impl=impl,
        mana=mana,
        vid_design=vid_design,
        platform=platform,
        nranks=spec.nranks,
        blocks=spec.blocks,
        runtime=median_rt,
        total_cs=result.total_cs,
        cs_per_second=result.total_cs / median_rt if median_rt else 0.0,
        wrapped_calls=sum(r.wrapped_calls for r in result.ranks),
        status=result.status,
        trials=len(runtimes),
        runtime_std=std_rt,
    )


class CaseCache:
    """Memoizes case *outcomes* across the experiments of one ``report``
    run or test session (several experiments share the native baselines).

    Failures are cached alongside successes and re-raised by ``get``:
    the expected ``IncompatibleHandleError`` of legacy-design-on-64-bit
    cases renders as the same "n/a" figure cell every time without
    re-running the doomed case.  ``prefetch`` fills the cache for a
    whole sweep at once, optionally in parallel (see
    :mod:`repro.harness.parallel`).
    """

    def __init__(self) -> None:
        #: key -> ("ok", CaseResult) | ("err", exception)
        self._outcomes: Dict[Tuple, Tuple[str, object]] = {}

    @staticmethod
    def _key(kwargs: Dict) -> Tuple:
        return tuple(sorted(kwargs.items()))

    def get(self, **kwargs) -> CaseResult:
        key = self._key(kwargs)
        out = self._outcomes.get(key)
        if out is None:
            try:
                out = ("ok", run_case(**kwargs))
            except Exception as exc:
                out = ("err", exc)
            self._outcomes[key] = out
        status, payload = out
        if status == "err":
            raise payload
        return payload

    def prefetch(
        self, cases: Sequence[Dict], jobs: Optional[int] = None
    ) -> int:
        """Run every not-yet-cached case (deduplicated), ``jobs`` at a
        time, and store the outcomes.  Returns how many cases ran.
        Subsequent ``get`` calls are pure cache hits, raising exactly
        what a serial run would have raised."""
        from repro.harness.parallel import run_cases

        keys: List[Tuple] = []
        todo: List[Dict] = []
        for kw in cases:
            key = self._key(kw)
            if key in self._outcomes or key in keys:
                continue
            keys.append(key)
            todo.append(dict(kw))
        if todo:
            for key, out in zip(keys, run_cases(todo, jobs=jobs)):
                self._outcomes[key] = out
        return len(todo)
