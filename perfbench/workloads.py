"""Seeded job streams for the three certificate workloads.

A workload is an endless sequence of rounds; a round is a fixed multiset of
jobs whose order (and, where inputs are random, whose matrix contents) come
from the workload seed.  Measuring whole rounds keeps the mix of job sizes
the same on every seed, so the run-to-run spread reflects the program rather
than which jobs happened to fall inside the time window.

Every job is one ``commlab.cli.run(RunConfig)`` call plus an oracle from
``oracle.py`` that reads the job's artifacts back from disk.  Input files are
written here, once, with the benchmark's own writer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

import oracle

WORKLOADS = ("anderson-dense", "minimize-restarts", "certify-mix")

ANDERSON_FAMILIES = (
    ("powerlog:1,-0.5,0", (1.0, -0.5, 0.0)),                # sqrt(n)
    ("powerlog:1,0,-1", (1.0, 0.0, -1.0)),                  # log(n+1)
    ("powerlog:1,-0.3333333333333333,0", (1.0, -0.3333333333333333, 0.0)),  # n^(1/3)
)

# Acceptance targets of the norm-minimum search and the minimum each one has.
MINIMIZE_TARGETS = (
    ("t4", np.diag([-1.0, 1 / 3, 1 / 3, 1 / 3]), float(np.sqrt(4.0 / 3.0))),
    ("t3", np.diag([-1.0, 0.5, 0.5]), 1.0),
)


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``full`` is the benchmark, ``tiny`` serves the self-test."""

    anderson_blocks: tuple[int, ...]
    restarts: int
    type_a_dims: tuple[int, ...]
    type_c_dims: tuple[int, ...]
    sl_dims: tuple[int, ...]
    semisimple_ns: tuple[int, ...]
    staircase: tuple[tuple[int, int, bool], ...]   # (dim, operators, selfadjoint)
    classify_jobs: int
    mean_lengths: tuple[int, ...]
    setup_repeats: int


SCALES = {
    "full": Scale(
        anderson_blocks=(36, 48, 60),
        restarts=50,
        type_a_dims=(16, 48, 96, 128),
        type_c_dims=(16, 48, 96, 128),
        sl_dims=(32, 64),
        semisimple_ns=(4, 5, 6, 7, 8),
        staircase=((16, 1, False), (32, 2, True), (48, 3, False),
                   (64, 1, True), (96, 2, False), (128, 3, True)),
        classify_jobs=2,
        mean_lengths=(1000, 4000),
        setup_repeats=9,
    ),
    "tiny": Scale(
        anderson_blocks=(4, 5, 6),
        restarts=6,
        type_a_dims=(4, 6),
        type_c_dims=(4, 6),
        sl_dims=(4,),
        semisimple_ns=(3, 4),
        staircase=((6, 1, False), (8, 2, True)),
        classify_jobs=1,
        mean_lengths=(50,),
        setup_repeats=2,
    ),
}


@dataclass
class Job:
    """One certificate job: ``cli.RunConfig`` fields plus its oracle.

    ``check(out_dir)`` raises ``oracle.OracleError`` when an artifact misses
    its certificate.  ``size`` is the job's natural size: blocks for
    ``anderson-verify``, n for ``lie-semisimple``, else the input dimension
    or length.
    """

    kind: str
    size: int
    config: dict
    check: Callable[[str], None]


def write_matrix(path: str, m: np.ndarray) -> None:
    """Matrix file: ``rows cols`` then ``re im`` per entry, 17 digits."""
    m = np.asarray(m, dtype=np.complex128)
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    lines.extend(f"{z.real:.17g} {z.imag:.17g}" for z in m.reshape(-1))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def write_values(path: str, values: np.ndarray) -> None:
    with open(path, "w") as handle:
        handle.write("\n".join(f"{x:.17g}" for x in values) + "\n")


def _complex(rng: np.random.Generator, d: int) -> np.ndarray:
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def _traceless_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = _complex(rng, d)
    h = (g + g.conj().T) / 2.0
    return h - (np.trace(h) / d) * np.eye(d)


def _sp_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    """Hermitian member of the symplectic algebra: T = S T^T S."""
    g = _complex(rng, d)
    h = (g + g.conj().T) / 2.0
    s = oracle.symplectic_form(d // 2)
    return (h + s @ h.T @ s) / 2.0


class Workload:
    """Rounds of jobs for one workload, with inputs under ``work_dir``."""

    def __init__(self, name: str, seed: int, work_dir: str, scale: Scale):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.scale = scale
        self.rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        self.input_dir = os.path.join(work_dir, "inputs")
        os.makedirs(self.input_dir, exist_ok=True)
        self._round_jobs = getattr(self, "_" + name.replace("-", "_"))()

    def rounds(self) -> Iterator[list[Job]]:
        """Endless rounds; round r is the job pool in a seeded order."""
        r = 0
        while True:
            jobs = self._round_jobs(r)
            yield [jobs[i] for i in self.rng.permutation(len(jobs))]
            r += 1

    def _path(self, name: str) -> str:
        return os.path.join(self.input_dir, name)

    # -- anderson-dense ---------------------------------------------------

    def _anderson_dense(self):
        order = self.rng.permutation(len(ANDERSON_FAMILIES))

        def round_jobs(r: int) -> list[Job]:
            # One family per round, cycling through all three, at every
            # truncation; the O(m^6) dense commutator dominates every job.
            weights, params = ANDERSON_FAMILIES[order[r % len(order)]]
            return [
                Job("anderson-verify", m,
                    dict(command="anderson-verify", weights=weights, blocks=m),
                    lambda out, m=m, params=params: oracle.check_anderson(out, params, m))
                for m in self.scale.anderson_blocks
            ]
        return round_jobs

    # -- minimize-restarts ------------------------------------------------

    def _minimize_restarts(self):
        targets = []
        for label, t, minimum in MINIMIZE_TARGETS:
            path = self._path(f"{label}.txt")
            write_matrix(path, t)
            targets.append((path, t, minimum))

        def round_jobs(r: int) -> list[Job]:
            # Two 4x4 jobs to one 3x3 job: a 4x4 job takes about twice as
            # long, and with equal shares the median job time would fall in
            # the gap between the two targets and jump between runs.  Each
            # job draws its own restart seed, so every round is fresh work
            # of the same shape.
            return [
                Job("minimize", t.shape[0],
                    dict(command="minimize", target=path,
                         restarts=self.scale.restarts,
                         seed=int(self.rng.integers(2**31))),
                    lambda out, t=t, minimum=minimum: oracle.check_minimize(out, t, minimum))
                for path, t, minimum in (targets[0], targets[0], targets[1])
            ]
        return round_jobs

    # -- certify-mix ------------------------------------------------------

    def _certify_mix(self):
        s = self.scale
        rng = self.rng
        jobs: list[Job] = []
        for d in s.type_a_dims:
            t = _traceless_hermitian(rng, d)
            path = self._path(f"typeA_{d}.txt")
            write_matrix(path, t)
            jobs.append(Job("solve-selfcomm-A", d,
                            dict(command="solve-selfcomm", solver_type="A", inputs=(path,)),
                            lambda out, t=t: oracle.check_self_commutator(out, t, 1e-9)))
        for d in s.type_c_dims:
            t = _sp_hermitian(rng, d)
            path = self._path(f"typeC_{d}.txt")
            write_matrix(path, t)
            jobs.append(Job("solve-selfcomm-C", d,
                            dict(command="solve-selfcomm", solver_type="C", inputs=(path,)),
                            lambda out, t=t: oracle.check_type_c(out, t)))
        for d in s.sl_dims:
            t = _traceless_hermitian(rng, d)
            path = self._path(f"sl_{d}.txt")
            write_matrix(path, t)
            jobs.append(Job("lie-solve-sl", d,
                            dict(command="lie", action="solve-sl", inputs=(path,)),
                            lambda out, t=t: oracle.check_self_commutator(out, t, 1e-9)))
        for n in s.semisimple_ns:
            jobs.append(Job("lie-semisimple", n,
                            dict(command="lie", action="semisimple", rank=n),
                            oracle.check_semisimple))
        for d, count, hermitian in s.staircase:
            ops = []
            paths = []
            for i in range(count):
                a = _complex(rng, d)
                if hermitian:
                    a = (a + a.conj().T) / 2.0
                path = self._path(f"stair_{d}_{count}_{i}.txt")
                write_matrix(path, a)
                ops.append(a)
                paths.append(path)
            jobs.append(Job("staircase", d,
                            dict(command="staircase", inputs=tuple(paths), selfadjoint=hermitian),
                            lambda out, ops=ops, h=hermitian: oracle.check_staircase(out, ops, h)))
        for _ in range(s.classify_jobs):
            p = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
            q = float(rng.choice([0.0, 1.0, 2.0, 3.0]))
            jobs.append(Job("seq-classify", 0,
                            dict(command="seq", action="classify", family=f"powerlog:1,{p!r},{q!r}"),
                            lambda out, p=p, q=q: oracle.check_classify(out, p, q)))
        for length in s.mean_lengths:
            values = rng.standard_normal(length)
            path = self._path(f"values_{length}.txt")
            write_values(path, values)
            jobs.append(Job("seq-mean", length,
                            dict(command="seq", action="mean", inputs=(path,)),
                            lambda out, v=values: oracle.check_mean(out, v)))
        return lambda r: jobs
