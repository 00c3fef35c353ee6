"""The four benchmark workloads: seeded inputs, one unit of work, and its checks.

Each workload builds a fixed cycle of inputs from the seed. A unit takes one
input and calls the public qcorr API; check() re-derives what the unit
returned with independent public functions, outside the timed region, and
returns a list of failure messages. Every qcorr function is looked up on the
module at call time, so the tracer's wrappers are seen.

Workloads and why they were chosen:
  scenario  the fixed demonstration through the in-process CLI; J and D are
            minimized on the same 6 (pair, side) cases, and the report is
            rendered, so the CLI and rendering layers show here only.
  audit     kw_audit batches over Haar three-qubit states: the batch API,
            J without discord, every refinement improving on the grid.
  pairs     two-qubit states parsed from JSON one at a time, including
            full-rank and adversarial spectra: the per-objective kernel and
            the refinement's iteration counts.
  spectra   mixed three-qubit states of rank 1 to 8 with no optimizer:
            validation, partial trace, eigen-entropy and concurrence.
"""
from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from math import pi, sqrt
from pathlib import Path
from time import perf_counter

import numpy as np

TOL = 1e-9
# the oracle may sit above the refined discord by at most this (grid step)
ORACLE_SLACK = 1e-4
ORACLE_RESOLUTION = 400
# inputs per cycle: enough distinct inputs for a tail percentile, few enough
# that a run makes several passes (per-input best of passes is reported)
AUDIT_COUNT = 1            # states per audit unit
AUDIT_UNITS = 40
PAIRS_PER_KIND = 8
SPECTRA_PER_RANK = 20
GOLDEN = Path("tests") / "golden" / "reproduce.json"


def run_cli(q, argv) -> tuple[int, str]:
    """qcorr.cli.main in process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = q.cli.main(list(argv))
    return code, out.getvalue()


# -- seeded state generators ---------------------------------------------------

def _ginibre(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _mixed(rng, dim, rank):
    g = _ginibre(rng, dim, rank)
    m = g @ g.conj().T
    return m / np.trace(m).real


def _haar_unitary(rng, dim):
    qm, r = np.linalg.qr(_ginibre(rng, dim, dim))
    d = np.diag(r)
    return qm * (d / np.abs(d))


def _near_degenerate(rng):
    # two eigenvalue pairs split by about 1e-9, in a Haar-random basis
    a, b = rng.uniform(0.1, 0.4, 2)
    eta = 1e-9 * rng.uniform(0.5, 1.0)
    lam = np.array([a, a + eta, b, b + eta])
    lam /= lam.sum()
    u = _haar_unitary(rng, 4)
    return (u * lam) @ u.conj().T


def _product(rng):
    return np.kron(_mixed(rng, 2, 2), _mixed(rng, 2, 2))


def _x_state(rng):
    a, b, c, d = rng.dirichlet(np.ones(4))
    m = np.diag([a, b, c, d]).astype(complex)
    m[0, 3] = rng.uniform() * sqrt(a * d) * np.exp(2j * pi * rng.uniform())
    m[1, 2] = rng.uniform() * sqrt(b * c) * np.exp(2j * pi * rng.uniform())
    m[3, 0], m[2, 1] = np.conj(m[0, 3]), np.conj(m[1, 2])
    return m


def _near_floor(rng, floor):
    # pure state whose nearly pure qubit has an outcome probability near floor
    delta = floor * 10.0 ** rng.uniform(-0.5, 1.0)
    u = _haar_unitary(rng, 2)
    psi = (sqrt(1.0 - delta) * np.kron([1.0, 0.0], u[:, 0])
           + sqrt(delta) * np.kron([0.0, 1.0], u[:, 1]))
    if rng.uniform() < 0.5:
        psi = psi.reshape(2, 2).T.ravel()
    return np.outer(psi, psi.conj())


# -- workloads -----------------------------------------------------------------

class Workload:
    """Defaults: cold runs are checked only against the in-process run, and
    there is no check outside the loop."""

    def check_cold(self, stdout: bytes) -> list[str]:
        return []

    def precheck(self) -> tuple[list[str], list[float]]:
        """Failures of checks run once before the loop, and oracle call seconds."""
        return [], []


class Scenario(Workload):
    name = "scenario"
    unit_size = "one `reproduce --format json` through qcorr.cli.main"

    def __init__(self, q, rng, root, workdir):
        self.q = q
        self.golden = (root / GOLDEN).read_bytes()
        self.cycle = [None]  # the scenario's states are fixed
        self.cold_argv = ["reproduce", "--format", "json"]

    def unit(self, item):
        return run_cli(self.q, ["reproduce", "--format", "json"])

    def check(self, item, result):
        code, text = result
        errors = []
        if code != 0:
            errors.append(f"reproduce exited {code}")
        if text.encode("utf-8") != self.golden:
            errors.append("reproduce stdout differs from the golden")
        return errors

    def check_cold(self, stdout: bytes):
        return [] if stdout == self.golden else ["cold reproduce stdout differs from the golden"]


class Audit(Workload):
    name = "audit"
    unit_size = f"kw_audit(count={AUDIT_COUNT}, seed) = {3 * AUDIT_COUNT} directional minimizations"

    def __init__(self, q, rng, root, workdir):
        self.q = q
        self.cycle = [int(s) for s in rng.integers(0, 2**31 - 1, AUDIT_UNITS)]
        self.cold_argv = ["kw-audit", "--count", str(AUDIT_COUNT), "--seed", str(self.cycle[0])]

    def unit(self, seed):
        return self.q.kw_audit(AUDIT_COUNT, seed)

    def check(self, seed, summary):
        errors = []
        if not summary.within_bounds:
            errors.append(f"kw_audit seed {seed}: residuals [{summary.min_residual:.3e}, "
                          f"{summary.max_residual:.3e}] out of bounds")
        if summary.count != AUDIT_COUNT or summary.seed != seed:
            errors.append(f"kw_audit seed {seed}: summary echoes {summary.count}, {summary.seed}")
        return errors

    def check_cold(self, stdout: bytes):
        lines = stdout.decode("utf-8").split("\n")
        return [] if "within_bounds  true" in lines else ["cold kw-audit not within bounds"]


class Pairs(Workload):
    name = "pairs"
    unit_size = "parse_state + discord and J on both sides + concurrence, one two-qubit state"
    kinds = ("ginibre", "near_degenerate", "product", "x_state", "near_floor")

    def __init__(self, q, rng, root, workdir):
        self.q = q
        self.rng = rng
        floor = q.measurement.PROB_FLOOR
        make = {"ginibre": lambda: _mixed(rng, 4, 4),
                "near_degenerate": lambda: _near_degenerate(rng),
                "product": lambda: _product(rng),
                "x_state": lambda: _x_state(rng),
                "near_floor": lambda: _near_floor(rng, floor)}
        self.cycle = []
        for _ in range(PAIRS_PER_KIND):
            for kind in self.kinds:
                text = q.density_to_json(q.DensityMatrix(make[kind](), (2, 2)))
                self.cycle.append((kind, text))
        path = workdir / "pairs.json"
        path.write_text(self.cycle[0][1], encoding="utf-8")
        self.cold_argv = ["measure", str(path.relative_to(root)), "--measure", "discord"]

    def unit(self, item):
        q = self.q
        rho = q.parse_state(item[1])
        d, j = [], []
        for m in (0, 1):
            d.append(q.discord(rho, m).value)
            j.append(q.classical_correlation(rho, m).value)
        return rho, d, j, q.concurrence(rho)

    def check(self, item, result):
        q = self.q
        rho, d, j, c = result
        s = [q.von_neumann_entropy(q.partial_trace(rho, [1 - k])) for k in (0, 1)]
        iq = q.mutual_information(rho, [0])
        errors = []
        for m in (0, 1):
            tag = f"{item[0]} measured={m}"
            if d[m] < -TOL:
                errors.append(f"{tag}: D = {d[m]:.3e} < 0")
            if j[m] > s[1 - m] + TOL:
                errors.append(f"{tag}: J = {j[m]!r} > S(unmeasured) = {s[1 - m]!r}")
            if d[m] > s[m] + TOL:
                errors.append(f"{tag}: D = {d[m]!r} > S(measured) = {s[m]!r}")
            if abs(j[m] + d[m] - iq) > TOL:
                errors.append(f"{tag}: J + D - I_q = {j[m] + d[m] - iq:.3e}")
        if not 0.0 <= c <= 1.0:
            errors.append(f"{item[0]}: concurrence {c!r} outside [0, 1]")
        return errors

    def precheck(self):
        """Bracket one seeded (state, side) per kind with the brute-force oracle.

        Returns the failures and each oracle call's seconds.
        """
        q = self.q
        errors, times = [], []
        for k, kind in enumerate(self.kinds):
            idx = k + len(self.kinds) * int(self.rng.integers(PAIRS_PER_KIND))
            side = int(self.rng.integers(2))
            rho = q.parse_state(self.cycle[idx][1])
            d = q.discord(rho, side).value
            t0 = perf_counter()
            oracle = q.discord_oracle_grid(rho, side, ORACLE_RESOLUTION)
            times.append(perf_counter() - t0)
            if not d - TOL <= oracle <= d + ORACLE_SLACK:
                errors.append(f"oracle bracket {kind} #{idx} measured={side}: "
                              f"oracle {oracle!r} vs discord {d!r}")
        return errors, times


class Spectra(Workload):
    name = "spectra"
    unit_size = ("DensityMatrix + 3 marginals + 3 pairs, entropies, 3 cuts, "
                 "concurrence and EoF per pair")

    def __init__(self, q, rng, root, workdir):
        self.q = q
        self.cycle = [(rank, _mixed(rng, 8, rank))
                      for _ in range(SPECTRA_PER_RANK) for rank in range(1, 9)]
        rho = q.DensityMatrix(self.cycle[0][1], (2, 2, 2))
        path = workdir / "spectra.json"
        path.write_text(q.density_to_json(q.partial_trace(rho, [2])), encoding="utf-8")
        self.cold_argv = ["measure", str(path.relative_to(root)), "--measure", "eof"]

    def unit(self, item):
        q = self.q
        rho = q.DensityMatrix(item[1], (2, 2, 2))
        marginals = [q.partial_trace(rho, [k for k in range(3) if k != i]) for i in range(3)]
        pairs = [q.partial_trace(rho, [k]) for k in (2, 1, 0)]  # AB, AC, BC
        s = q.von_neumann_entropy(rho)
        s1 = [q.von_neumann_entropy(m) for m in marginals]
        s2 = [q.von_neumann_entropy(p) for p in pairs]
        mi = [q.mutual_information(rho, [i]) for i in range(3)]
        conc = [q.concurrence(p) for p in pairs]
        eof = [q.eof_two_qubits(p) for p in pairs]
        return s, s1, s2, mi, conc, eof

    def check(self, item, result):
        rank = item[0]
        s, s1, s2, mi, conc, eof = result
        errors = []
        for p, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
            if abs(s1[i] - s1[j]) > s2[p] + TOL:
                errors.append(f"rank {rank}: Araki-Lieb fails on pair {i}{j}")
            if s2[p] > s1[i] + s1[j] + TOL:
                errors.append(f"rank {rank}: subadditivity fails on pair {i}{j}")
            if not 0.0 <= conc[p] <= 1.0:
                errors.append(f"rank {rank}: concurrence {conc[p]!r} outside [0, 1]")
            if eof[p] > min(s1[i], s1[j]) + TOL:
                errors.append(f"rank {rank}: EoF {eof[p]!r} > min(S_{i}, S_{j})")
        for i in range(3):
            if mi[i] < -TOL:
                errors.append(f"rank {rank}: I_q across cut {i} = {mi[i]:.3e} < 0")
            if rank == 1 and abs(s1[i] - s2[2 - i]) > TOL:
                errors.append(f"rank 1: S({i}) - S(rest) = {s1[i] - s2[2 - i]:.3e}")
        if rank == 1 and abs(s) > TOL:
            errors.append(f"rank 1: S = {s!r}")
        return errors


WORKLOADS = {w.name: w for w in (Scenario, Audit, Pairs, Spectra)}
