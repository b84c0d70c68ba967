"""The benchmark registry (Table 1)."""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from importlib import import_module
from typing import Dict, List

from repro.isa.assembler import assemble
from repro.isa.program import Program
from repro.workloads.harness import measurement_harness, service_harness

#: Each Table 1 benchmark's name and the module under
#: :mod:`repro.workloads` that defines it (its ``NAME`` is the key), in
#: table order.
_MODULES: Dict[str, str] = {
    "mult": "mult",
    "binSearch": "binsearch",
    "tea8": "tea8",
    "intFilt": "intfilt",
    "tHold": "thold",
    "div": "divide",
    "inSort": "insort",
    "rle": "rle",
    "intAVG": "intavg",
    "autocorr": "autocorr",
    "FFT": "fft",
    "ConvEn": "conven",
    "Viterbi": "viterbi",
}


@dataclass(frozen=True)
class BenchmarkInfo:
    """One Table 1 benchmark."""

    name: str
    suite: str  # "embedded" ([34]) or "eembc" ([35])
    description: str
    expected_violator: bool
    kernel: str
    data: str
    #: activation batch size: the kernel body repeats this many times per
    #: task activation, sizing the task realistically for the Section 7.2
    #: time-slicing trade-offs (r15 is the batch counter; kernels use
    #: r4..r13, and r14 is the toolflow's reserved scratch).
    reps: int = 1

    @property
    def batched_kernel(self) -> str:
        if self.reps <= 1:
            return self.kernel
        return (
            f"    mov #{self.reps}, r15   ; activation batch\n"
            "bench_rep:\n"
            + self.kernel.rstrip()
            + "\n    dec r15\n"
            "    jnz bench_rep\n"
        )

    @property
    def service_source(self) -> str:
        """Restart-forever system binary (the analysis target)."""
        return service_harness(self.batched_kernel, self.data)

    @property
    def measurement_source(self) -> str:
        """Single-shot system binary (the cycle-measurement target)."""
        return measurement_harness(self.batched_kernel, self.data)

    def service_program(self) -> Program:
        return assemble(self.service_source, name=self.name)

    def measurement_program(self) -> Program:
        return assemble(self.measurement_source, name=self.name)


class _Benchmarks(Mapping):
    """The read-only name -> :class:`BenchmarkInfo` table.  A
    benchmark's module is imported when the benchmark is first looked
    up, so an analysis of one benchmark imports one kernel."""

    def __init__(self) -> None:
        self._infos: Dict[str, BenchmarkInfo] = {}

    def __getitem__(self, name: str) -> BenchmarkInfo:
        info = self._infos.get(name)
        if info is None:
            module = import_module(f"repro.workloads.{_MODULES[name]}")
            info = self._infos[name] = BenchmarkInfo(
                name=module.NAME,
                suite=module.SUITE,
                description=module.DESCRIPTION,
                expected_violator=module.EXPECTED_VIOLATOR,
                kernel=module.KERNEL,
                data=module.DATA,
                reps=getattr(module, "REPS", 1),
            )
        return info

    def __contains__(self, name: object) -> bool:
        return name in _MODULES

    def __iter__(self) -> Iterator[str]:
        return iter(_MODULES)

    def __len__(self) -> int:
        return len(_MODULES)


BENCHMARKS: Mapping[str, BenchmarkInfo] = _Benchmarks()


def benchmark(name: str) -> BenchmarkInfo:
    return BENCHMARKS[name]


def benchmark_names() -> List[str]:
    return list(BENCHMARKS)


#: The six benchmarks Table 2 reports as violating conditions 1 and 2.
TABLE2_VIOLATORS = (
    "binSearch",
    "div",
    "inSort",
    "intAVG",
    "tHold",
    "Viterbi",
)
